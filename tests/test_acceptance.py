"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Each test prints "[PASS] criterion N: ..." after its assertions; a failure
surfaces as the usual pytest report for that criterion's test.
"""

import itertools
import math
import time

import numpy as np
import pytest

from listboost import (
    BoostConfig,
    BrgAuditLog,
    CalibratedBrgOracle,
    CompressionRecord,
    ErmFiniteLearner,
    ErmListLearner,
    FiniteClass,
    ListFunction,
    RandomStream,
    TooWeakLearner,
    WeakLearnerSpec,
    build_initial_hint,
    build_oig,
    eliminate_min_label,
    find_orientation,
    generalization_bound,
    k_list_pac_learn,
    kds_dimension,
    list_to_weak,
    one_inclusion_list_predict,
    reconstruct,
    recursive_boost,
    run_hedge,
    weak_to_list,
)
from listboost.harness import gen_counterexample, gen_planted
from listboost.core import make_dataset
from listboost.listlearn import ListLearner

# Compact per-run payloads for criterion 3: (tag, sum of alphas, rhs per example).
REGRET_RUNS = []


def _register_regret(tag, hedge_result):
    REGRET_RUNS.append((tag, float(hedge_result.alphas.sum()),
                        np.asarray(hedge_result.regret_bound_rhs(), dtype=np.float64)))


def _passed(n, text):
    print(f"[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1. The three-point gadget defeats plurality voting but not elimination.


def _run_counterexample(T):
    res = gen_counterexample()
    ds = res.dataset
    spec = WeakLearnerSpec(TooWeakLearner(), m0=ds.m)
    eta = math.sqrt(math.log(ds.m) / (2.0 * T))
    out = run_hedge(ds, ListFunction.universal(ds.alphabet), spec, T=T, eta=eta,
                    rng=RandomStream(T, ("gadget",)))
    return ds, out


def test_criterion_01_plurality_fails_elimination_succeeds():
    start = time.perf_counter()
    for T in (10, 100, 1000):
        ds, out = _run_counterexample(T)
        _register_regret(f"gadget[T={T}]", out)
        hits = 0
        for ex in ds.examples:
            counts = out.score.counts(ex.instance)
            top = max(enumerate(counts), key=lambda kv: (kv[1], -kv[0]))[0]
            hits += top == ex.label
            dropped = eliminate_min_label(out.score, ex.instance, ds.alphabet)
            assert dropped != ex.label, (T, ex)
        # Exact integer form of accuracy <= 2/3 on the 3-point sample.
        assert hits <= 2, (T, hits)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"gadget sweep took {elapsed:.3f}s"
    _passed(1, "plurality accuracy <= 2/3 exactly and elimination keeps the "
               f"truth for T in (10, 100, 1000) in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Aggregate vote guarantee under the calibrated oracle, 50 seeded runs.

VOTE_FLOOR_GRID = [
    (k, gamma, m)
    for k in (2, 3, 4, 5, 6)
    for gamma in (0.05, 0.1, 0.15, 0.2, 0.3)
    for m in (60, 200)
]


def _run_floor_instance(k, gamma, m, seed):
    gen = gen_planted(m=m, n_labels=k, class_size=6, n_instances=12,
                      rng=RandomStream(seed, ("floor",)))
    ds = gen.dataset
    T = math.ceil(8.0 * math.log(m) / gamma**2)
    eta = math.sqrt(math.log(m) / (2.0 * T))
    mu = ListFunction.explicit(
        {x: tuple(ds.alphabet) for x in ds.unique_instances},
        declared_size=k, name=f"full{k}")
    spec = WeakLearnerSpec(CalibratedBrgOracle(gamma=gamma, margin=1e-6), m0=m)
    log = BrgAuditLog()
    out = run_hedge(ds, mu, spec, T=T, eta=eta,
                    rng=RandomStream(seed, ("floor-run",)), gamma=gamma,
                    audit_log=log)
    return ds, out, T, log


def test_criterion_02_vote_floor_for_every_training_pair():
    assert len(VOTE_FLOOR_GRID) == 50
    for seed, (k, gamma, m) in enumerate(VOTE_FLOOR_GRID):
        ds, out, T, log = _run_floor_instance(k, gamma, m, seed)
        assert log.all_passed and len(log) == T
        _register_regret(f"floor[k={k},gamma={gamma},m={m}]", out)
        floor = 1.0 / k + gamma / 2.0
        for ex in ds.examples:
            rate = out.score.score(ex.instance, ex.label) / T
            assert rate >= floor - 1e-9, (k, gamma, m, ex, rate, floor)
    _passed(2, "H(x,y)/T >= 1/k + gamma/2 - 1e-9 on every training pair over "
               "50 seeded (k, gamma, m) runs")


# ---------------------------------------------------------------------------
# 3. The multiplicative-weights regret inequality on every run from 1-2.


def test_criterion_03_regret_inequality_on_all_runs():
    if len(REGRET_RUNS) < 53:  # partial invocation of the file: top up
        _register_regret("gadget[T=100]", _run_counterexample(100)[1])
        _register_regret("floor[k=3]", _run_floor_instance(3, 0.2, 60, 0)[1])
    for tag, lhs, rhs in REGRET_RUNS:
        slack = rhs + 1e-6 * np.maximum(1.0, np.abs(rhs))
        assert np.all(lhs <= slack), (tag, lhs, float(rhs.min()))
    _passed(3, f"sum(alpha_t) <= ln(m)/eta + eta*T + H(x_i,y_i) for every "
               f"example on all {len(REGRET_RUNS)} recorded runs (rel tol 1e-6)")


# ---------------------------------------------------------------------------
# 4. The initial hint covers every example within its round budget.


def test_criterion_04_initial_hint_covers_everything():
    for seed in range(30):
        gamma = (0.2, 0.3, 0.5)[seed % 3]
        m = 60 + 5 * seed
        gen = gen_planted(m=m, n_labels=4, class_size=6, n_instances=10,
                          rng=RandomStream(seed, ("hint",)))
        ds = gen.dataset
        p = math.ceil(math.log(m) / gamma)
        spec = WeakLearnerSpec(ErmFiniteLearner(gen.finite_class), m0=ds.m)
        log = BrgAuditLog()
        res = build_initial_hint(ds, spec, p=p, rng=RandomStream(seed, ("hr",)),
                                 gamma=gamma, audit_log=log)
        assert res.covered_all and res.uncovered == ()
        assert log.all_passed and len(log) == res.rounds_run
        for ex in ds.examples:
            assert ex.label in res.mu(ex.instance)
    _passed(4, "empty residual and y in mu1(x) for all pairs over 30 seeds, "
               "per-round accuracy audited at gamma")


# ---------------------------------------------------------------------------
# 5. Boosting is consistent and its record size matches the formula exactly.


def test_criterion_05_consistency_and_exact_record_size():
    checked_with_phases = 0
    for seed in range(12):
        oracle_run = seed % 3 != 2
        gamma = 0.5 if oracle_run else 0.3
        m = 500 if oracle_run else 300
        gen = gen_planted(m=m, n_labels=16, class_size=8, n_instances=20,
                          rng=RandomStream(seed, ("c5",)))
        ds = gen.dataset
        learner = (CalibratedBrgOracle(gamma=gamma, margin=1e-3) if oracle_run
                   else ErmFiniteLearner(gen.finite_class))
        spec = WeakLearnerSpec(learner, m0=ds.m)
        cfg = BoostConfig.from_defaults(m=ds.m, gamma=gamma, seed=seed)
        log = BrgAuditLog()
        res = recursive_boost(ds, spec, cfg, audit_log=log)
        assert log.all_passed
        for i, x in enumerate(ds.instances):
            assert res.predict(x) == int(ds.labels[i])
        hint_rounds = res.hint_result.rounds_run
        phases = res.record.meta["phases_run"]
        assert res.compression_size == ds.m * hint_rounds + phases * cfg.T * ds.m
        checked_with_phases += phases > 0
    assert checked_with_phases >= 4  # the formula was exercised beyond the hint
    _passed(5, "exact training consistency and compression_size == "
               "m0*hint_rounds + phases*T*m0 on 12 planted runs (|Y|=16)")


# ---------------------------------------------------------------------------
# 6. Measured generalization failures stay within the delta budget.


def test_criterion_06_generalization_failure_rate():
    delta = 0.1
    seeds = 50
    failures = 0
    for seed in range(seeds):
        gen = gen_planted(m=1500, n_labels=4, class_size=8, n_instances=16,
                          rng=RandomStream(seed, ("c6",)))
        ds = gen.dataset
        spec = WeakLearnerSpec(ErmFiniteLearner(gen.finite_class), m0=50)
        cfg = BoostConfig.from_defaults(m=ds.m, gamma=0.3, m0=50, seed=seed,
                                        delta=delta)
        res = recursive_boost(ds, spec, cfg)
        eps = generalization_bound(res.compression_size, ds.m, delta)
        fc = gen.finite_class
        row = fc.table[gen.target_row]
        wrong = sum(1 for j, c in enumerate(fc.columns)
                    if res.predict(c) != int(row[j]))
        true_error = wrong / fc.n  # exact under the uniform instance draw
        failures += res.consistent_on_train and true_error > eps
    budget = delta + 3.0 * math.sqrt(delta * (1 - delta) / seeds)
    assert failures / seeds <= budget, (failures, budget)
    _passed(6, f"consistent-but-wrong fraction {failures}/{seeds} <= "
               f"{budget:.3f} at delta={delta} (exact true error)")


# ---------------------------------------------------------------------------
# 7. Padding the label alphabet changes nothing measurable.


def _decoy_class_and_pairs():
    n_cols = 12
    cols = tuple(range(n_cols))
    decoy = tuple([0] * n_cols)
    target = tuple([1] + [0] * (n_cols - 1))
    extra = [tuple((c + i) % 3 for c in range(n_cols)) for i in (1, 2)]
    rows = [decoy, target] + extra
    gen = np.random.default_rng(77)
    xs = gen.integers(0, n_cols, size=400)
    pairs = [(int(x), int(target[int(x)])) for x in xs]
    return rows, cols, pairs


def _run_padded(rows, cols, pairs, alphabet):
    fc = FiniteClass.from_rows(rows, columns=cols, alphabet=alphabet)
    ds = make_dataset(pairs, alphabet=alphabet)
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=8)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=0.3, m0=8, seed=4)
    start = time.perf_counter()
    res = recursive_boost(ds, spec, cfg)
    elapsed = time.perf_counter() - start
    return res, elapsed


def test_criterion_07_label_space_independence():
    rows, cols, pairs = _decoy_class_and_pairs()
    _run_padded(rows, cols, pairs, alphabet=(0, 1, 2))  # warm caches
    _run_padded(rows, cols, pairs, alphabet=tuple(range(6)))
    base_times, wide_times = [], []
    base = wide = None
    for rep in range(5):
        # One fit takes about 0.05 s, and on a shared machine single fits vary
        # by tens of percent. A sample is a batch of back-to-back fits lasting
        # at least 0.4 s per alphabet, the two interleaved in alternating order
        # so that a slow spell slows both alike.
        order = ((0, 1, 2), tuple(range(6)))
        if rep % 2:
            order = order[::-1]
        fits, spent = 0, {3: 0.0, 6: 0.0}
        while min(spent.values()) < 0.4:
            for alphabet in order:
                run, t = _run_padded(rows, cols, pairs, alphabet=alphabet)
                spent[len(alphabet)] += t
                if len(alphabet) == 3:
                    base = run
                else:
                    wide = run
            fits += 1
            order = order[::-1]
        base_times.append(spent[3] / fits)
        wide_times.append(spent[6] / fits)
    assert base.record.meta["phases_run"] >= 1  # the comparison is non-trivial
    assert wide.oracle_calls == base.oracle_calls
    assert wide.compression_size == base.compression_size
    base_groups = [(g.tag, [s.indices for s in g.slots],
                    [s.pred_hash for s in g.slots]) for g in base.record.groups]
    wide_groups = [(g.tag, [s.indices for s in g.slots],
                    [s.pred_hash for s in g.slots]) for g in wide.record.groups]
    assert wide_groups == base_groups
    # Best-of-5 is the noise-robust wall-time estimate on a shared machine.
    tb, tw = min(base_times), min(wide_times)
    drift = abs(tw - tb) / tb
    assert drift < 0.10, (tb, tw, drift)
    _passed(7, f"doubling |Y| changed oracle calls by 0, the record by 0 "
               f"bytes, and wall time by {100 * drift:.1f}% (< 10%)")


# ---------------------------------------------------------------------------
# 8. The weak <-> list conversions meet their stated shapes and targets.


class _PlantedEpsListLearner(ListLearner):
    """2-lists that contain the truth except on a fixed eps-share of columns."""

    list_size = 2
    name = "planted-eps-list"

    def __init__(self, fc: FiniteClass, bad_cols):
        self.fc = fc
        self.bad = frozenset(bad_cols)

    def train(self, sample):
        fc, bad = self.fc, self.bad

        def extend(x):
            j = fc.column_of(x)
            y = int(fc.table[0, j])
            others = [v for v in fc.alphabet if v != y]
            if j in bad:
                return (others[0], others[1 % len(others)])
            return (y, others[0])

        return ListFunction.composed(extend, declared_size=2, name=self.name)


def test_criterion_08_weak_list_conversions():
    # Part 1: weak-to-list shapes and coverage.
    for seed in range(10):
        gamma = (0.6, 0.45)[seed % 2]
        gen = gen_planted(m=50 + 10 * seed, n_labels=4, class_size=6,
                          n_instances=10, rng=RandomStream(seed, ("c8",)))
        ds = gen.dataset
        spec = WeakLearnerSpec(ErmFiniteLearner(gen.finite_class), m0=ds.m)
        res = weak_to_list(ds, spec, gamma=gamma, T=60, seed=seed)
        assert res.consistent_on_train
        for ex in ds.examples:
            lst = res.mu(ex.instance)
            assert 1 <= len(lst) <= res.k - 1
            assert ex.label in lst
    # One oracle-backed run at the default schedule.
    gen = gen_planted(m=30, n_labels=3, class_size=5, n_instances=8,
                      rng=RandomStream(99, ("c8",)))
    spec = WeakLearnerSpec(CalibratedBrgOracle(gamma=0.5, margin=1e-3),
                           m0=gen.dataset.m)
    res = weak_to_list(gen.dataset, spec, gamma=0.5, seed=3)
    assert res.consistent_on_train and res.k == 3
    assert all(len(res.mu(x)) <= 2 for x in gen.dataset.unique_instances)

    # Part 2: list-to-weak accuracy target, 50 seeds; q and r_val closed forms.
    k, eps, delta = 2, 0.2, 0.3
    q_expected = math.ceil(2.0 * k * math.log(2.0 / delta))
    r_expected = math.ceil(10.0 * math.log(2.0 * q_expected / delta) / (eps / k) ** 2)
    assert (q_expected, r_expected) == (8, 3977)
    target = (1.0 - 2.0 * eps) / k
    ok = 0
    for seed in range(50):
        gen = gen_planted(m=4200, n_labels=4, class_size=6, n_instances=20,
                          rng=RandomStream(seed, ("c8l",)))
        fc = gen.finite_class
        n_bad = int(eps * fc.n)
        bad = RandomStream(seed, ("bad",)).generator().choice(
            fc.n, size=n_bad, replace=False)
        learner = _PlantedEpsListLearner(fc, (int(b) for b in bad))
        out = list_to_weak(gen.dataset, learner, k=k, epsilon=eps, delta=delta,
                           rng=RandomStream(seed, ("conv",)))
        assert out.q == q_expected and out.r_val == r_expected
        ok += out.val_accuracies[out.chosen] >= target - 0.05
    assert ok >= 45, ok
    _passed(8, f"list sizes <= k-1 with full coverage; projection accuracy "
               f">= (1-2*eps)/k - 0.05 on {ok}/50 seeds; q, r_val exact")


# ---------------------------------------------------------------------------
# 9. One-inclusion toolkit against hand-derived values; consistent k-lists.

CATALOG = {
    # name: (rows, dimensions for k=1..2, optimal max out-degree for k=1..3)
    "point1": ([(0,), (1,)], (1, 0), (1, 0, 0)),
    "cube2": (list(itertools.product((0, 1), (0, 1))), (2, 0), (1, 0, 0)),
    "single": ([(0, 1, 2)], (0, 0), (0, 0, 0)),
    "tri1": ([(0,), (1,), (2,)], (1, 1), (1, 1, 0)),
    "hexagon": ([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)], (2, 1),
                (1, 0, 0)),
    "grid9": (list(itertools.product((0, 1, 2), (0, 1, 2))), (2, 2),
              (2, 1, 0)),
}


def _catalog_class(name):
    rows, _, _ = CATALOG[name]
    n = len(rows[0])
    return FiniteClass.from_rows(rows, columns=tuple(range(n)))


def _planted_from(fc, m, seed, row):
    gen = np.random.default_rng(seed)
    xs = gen.integers(0, fc.n, size=m)
    return make_dataset(
        [(fc.columns[int(x)], int(fc.table[row, int(x)])) for x in xs],
        alphabet=fc.alphabet)


def test_criterion_09_oig_oracle_suite():
    for name, (rows, dims, opts) in CATALOG.items():
        fc = _catalog_class(name)
        for k in (1, 2):
            assert kds_dimension(fc, k) == dims[k - 1], (name, k)
        graph = build_oig(fc)
        for k in (1, 2, 3):
            orientation = find_orientation(graph, k, strategy="exhaustive")
            assert orientation.optimal
            M = opts[k - 1]
            assert orientation.max_out_degree == M, (name, k)
            # Exhaustive leave-one-out: every rotation of every row misses
            # at most M of its n points -- the exact integer form of the
            # per-row error bound M / n_points.
            for row in range(fc.size):
                misses = 0
                for j, query in enumerate(fc.columns):
                    sample = [(c, int(fc.table[row, i]))
                              for i, c in enumerate(fc.columns) if i != j]
                    pred = one_inclusion_list_predict(fc, sample, query, k,
                                                      strategy="exhaustive")
                    misses += int(fc.table[row, j]) not in pred.labels
                assert misses <= M, (name, k, row, misses, M)

    # Consistent k-lists on planted samples (d <= 2, m <= 50), including one
    # run that needs elimination rounds beyond the cover.
    grid9 = _catalog_class("grid9")
    hexagon = _catalog_class("hexagon")
    fc8 = FiniteClass.from_rows(
        [(0, 1, 2, 0), (1, 2, 0, 1), (2, 0, 1, 2), (0, 0, 0, 0),
         (1, 1, 1, 1), (2, 2, 2, 2), (0, 2, 1, 0), (1, 0, 2, 1)],
        columns=("a", "b", "c", "d"))
    u, v = grid9.columns
    runs = [
        (grid9, 1, make_dataset([(u, 1)] * 2 + [(v, 2)] * 4,
                                alphabet=grid9.alphabet)),
        (grid9, 2, _planted_from(grid9, 50, 9, row=5)),
        (hexagon, 2, _planted_from(hexagon, 20, 5, row=2)),
        (fc8, 1, _planted_from(fc8, 20, 2, row=1)),
        (fc8, 2, _planted_from(fc8, 40, 3, row=4)),
    ]
    saw_rounds = 0
    for fc, k, ds in runs:
        assert kds_dimension(fc, k) <= 2
        res = k_list_pac_learn(fc, ds, k=k, seed=1)
        assert res.consistent_on_train
        for ex in ds.examples:
            lst = res.mu(ex.instance)
            assert ex.label in lst and len(lst) <= k
        saw_rounds += res.rounds_run > 0
    assert saw_rounds >= 1
    _passed(9, "dimensions and orientations match the hand enumeration on 6 "
               "classes; leave-one-out misses <= M exactly; planted k-lists "
               "consistent")


# ---------------------------------------------------------------------------
# 10. Records round-trip through JSON and reproduce predictions exactly.


def _probe(columns, n=1000, seed=123):
    gen = np.random.default_rng(seed)
    return [columns[int(i)] for i in gen.integers(0, len(columns), size=n)]


def test_criterion_10_serialize_reconstruct_predict(tmp_path):
    # boost
    rows, cols, pairs = _decoy_class_and_pairs()
    fc = FiniteClass.from_rows(rows, columns=cols, alphabet=(0, 1, 2))
    ds = make_dataset(pairs, alphabet=(0, 1, 2))
    spec = WeakLearnerSpec(ErmFiniteLearner(fc), m0=8)
    cfg = BoostConfig.from_defaults(m=ds.m, gamma=0.3, m0=8, seed=4)
    res = recursive_boost(ds, spec, cfg)
    path = tmp_path / "boost.json"
    res.record.dump(path)
    rec = reconstruct(CompressionRecord.load(path), ds, spec=spec)
    for x in list(ds.unique_instances) + _probe(fc.columns):
        assert rec.predict(x) == res.predict(x)

    # list-boost (weak-to-list record)
    gen = gen_planted(m=60, n_labels=4, class_size=6, n_instances=10,
                      rng=RandomStream(5, ("c10",)))
    ds2 = gen.dataset
    spec2 = WeakLearnerSpec(ErmFiniteLearner(gen.finite_class), m0=20)
    w2l = weak_to_list(ds2, spec2, gamma=0.6, T=50, seed=2)
    path2 = tmp_path / "w2l.json"
    w2l.record.dump(path2)
    rec2 = reconstruct(CompressionRecord.load(path2), ds2, spec=spec2)
    for x in list(ds2.unique_instances) + _probe(gen.finite_class.columns):
        assert rec2.mu(x) == w2l.mu(x)

    # oig-listpac
    grid9 = _catalog_class("grid9")
    u, v = grid9.columns
    ds3 = make_dataset([(u, 1)] * 2 + [(v, 2)] * 4, alphabet=grid9.alphabet)
    lp = k_list_pac_learn(grid9, ds3, k=1, seed=4)
    assert lp.rounds_run >= 1
    path3 = tmp_path / "listpac.json"
    lp.record.dump(path3)
    mu3 = reconstruct(CompressionRecord.load(path3), ds3, finite_class=grid9)
    for x in list(ds3.unique_instances) + _probe(grid9.columns):
        assert mu3(x) == lp.mu(x)
    _passed(10, "dump -> load -> reconstruct reproduces every prediction on "
                "S and a 1000-point probe for boost, list-boost, oig-listpac")
