"""The benchmark's workloads: seeded inputs, the timed pipeline, and output checks.

Every workload runs the same pipeline on each of its inputs: train, dump the
record, replay the predictor from the record, then predict every column of
the input's finite class. A round is one pass over the workload's batch of
inputs; the run repeats whole rounds. Each pipeline stage is timed on its own
and the checks run after the pipeline, outside every timed stage.

The checks test properties the method must have (audits, vote floors, the
regret inequality, training consistency, the record-size formula, bit-exact
replay), computed here from the outputs; none compares against stored
results.

The pipeline calls listboost through module attributes (``hedge.run_hedge``,
``recursive.recursive_boost``, ...), so the tracer in ``spans.py`` sees every
call it wraps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from listboost import compression, core, hedge, oig, recursive, weak_learn
from listboost.harness import gen_planted

STAGES = ("train", "dump", "replay", "predict")

# Full-size inputs. See README.md for why each workload has the shape it has.
SIZES = {
    "hedge-floor": dict(k=2, gamma=0.05, m=200, class_size=6, instances=12),
    "boost-oracle": dict(m=500, labels=16, class_size=8, instances=20, gamma=0.5),
    "boost-erm": dict(m=200, labels=8, rows=16, columns=260, flip=0.05, m0=8,
                      gamma=0.35),
    "listpac-oig": dict(m=300, labels=4, columns=12, k=1),
}

# The same workloads shrunk until a round takes well under a second.
TINY_SIZES = {
    "hedge-floor": dict(k=2, gamma=0.3, m=40, class_size=6, instances=8),
    "boost-oracle": dict(m=60, labels=6, class_size=6, instances=10, gamma=0.5),
    "boost-erm": dict(m=60, labels=4, rows=6, columns=60, flip=0.05, m0=10, gamma=0.5),
    "listpac-oig": dict(m=40, labels=3, columns=5, k=1),
}


class Clock:
    """Wall time per pipeline stage of one operation."""

    def __init__(self):
        self.stages = dict.fromkeys(STAGES, 0.0)
        self._stage = None
        self._start = 0.0

    def __call__(self, stage: str) -> "Clock":
        self._stage = stage
        return self

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.stages[self._stage] += time.perf_counter() - self._start
        return False


@dataclass
class Outcome:
    """What one pipeline operation produced, for the checks."""

    record_r: int
    data: dict
    notes: dict = field(default_factory=dict)


def consistency_problems(predict: Callable, dataset) -> list:
    """Training pairs whose prediction is not their label."""
    wrong = [i for i, x in enumerate(dataset.instances)
             if predict(x) != int(dataset.labels[i])]
    if not wrong:
        return []
    return [f"prediction differs from the label on {len(wrong)} training pair(s), "
            f"first at example {wrong[0]}"]


# ---------------------------------------------------------------------------
# hedge-floor: one long Hedge run of the vote-floor instance, then its replay.


@dataclass
class HedgeInputs:
    dataset: object
    columns: tuple
    mu: object
    spec: object
    k: int
    gamma: float
    T: int
    eta: float
    rng: object


def build_hedge_floor(seed: int, index: int, size: dict) -> HedgeInputs:
    k, gamma, m = size["k"], size["gamma"], size["m"]
    gen = gen_planted(m=m, n_labels=k, class_size=size["class_size"],
                      n_instances=size["instances"],
                      rng=core.RandomStream(seed, ("hedge-floor", index)))
    ds = gen.dataset
    T = recursive.default_round_count(m, gamma)
    mu = core.ListFunction.explicit({x: tuple(ds.alphabet) for x in ds.unique_instances},
                                    declared_size=k, name=f"full{k}")
    spec = weak_learn.WeakLearnerSpec(weak_learn.CalibratedBrgOracle(gamma=gamma, margin=1e-6),
                                      m0=m)
    return HedgeInputs(dataset=ds, columns=gen.finite_class.columns, mu=mu, spec=spec, k=k,
                       gamma=gamma, T=T, eta=recursive.default_learning_rate(m, T),
                       rng=core.RandomStream(seed, ("hedge-floor-run", index)))


def run_hedge_floor(inp: HedgeInputs, clock: Clock, record_path) -> Outcome:
    log = weak_learn.BrgAuditLog()
    with clock("train"):
        trained = hedge.run_hedge(inp.dataset, inp.mu, inp.spec, inp.T, inp.eta, inp.rng,
                                  gamma=inp.gamma, audit_log=log)
    with clock("replay"):
        replayed = hedge.replay_hedge(inp.dataset, inp.mu, inp.spec, trained.round_indices,
                                      inp.eta, gamma=inp.gamma)
    alphabet = inp.dataset.alphabet
    with clock("predict"):
        for x in inp.columns:
            hedge.eliminate_min_label(replayed.score, x, alphabet)
    r = sum(len(ix) for ix in trained.round_indices)
    return Outcome(record_r=r, data=dict(trained=trained, replayed=replayed, log=log))


def check_hedge_floor(inp: HedgeInputs, out: Outcome) -> list:
    trained, replayed, log = out.data["trained"], out.data["replayed"], out.data["log"]
    ds, T = inp.dataset, inp.T
    problems = []
    if not log.all_passed or len(log) != T:
        problems.append(f"{sum(not a.passed for a in log.entries)} of {len(log)} audits "
                        f"failed; expected {T} audits")
    # H(x_i, y_i): rounds whose prediction at example i was its label
    votes = (trained.score.predictions == ds.labels[np.newaxis, :]).sum(axis=0)
    floor = 1.0 / inp.k + inp.gamma / 2.0
    low = int(np.count_nonzero(votes / T < floor - 1e-9))
    if low:
        problems.append(f"{low} training pair(s) below the vote floor {floor:g}")
    lhs = math.fsum(trained.alphas.tolist())
    rhs = math.log(ds.m) / inp.eta + inp.eta * T + votes
    if not np.all(lhs <= rhs + 1e-6 * np.maximum(1.0, np.abs(rhs))):
        problems.append(f"regret inequality fails: sum(alpha)={lhs!r} > {float(rhs.min())!r}")
    if replayed.alphas.tobytes() != trained.alphas.tobytes():
        problems.append("replay changed the per-round alphas")
    if not np.array_equal(replayed.score.predictions, trained.score.predictions):
        problems.append("replay changed a prediction row")
    return problems


# ---------------------------------------------------------------------------
# boost-oracle and boost-erm: recursive boosting, record dump, load, reconstruct.


@dataclass
class BoostInputs:
    dataset: object
    columns: tuple
    spec: object
    config: object
    target: tuple = ()  # the labelling row, where the workload has one


def build_boost_oracle(seed: int, index: int, size: dict) -> BoostInputs:
    m, gamma = size["m"], size["gamma"]
    gen = gen_planted(m=m, n_labels=size["labels"], class_size=size["class_size"],
                      n_instances=size["instances"],
                      rng=core.RandomStream(seed, ("boost-oracle", index)))
    spec = weak_learn.WeakLearnerSpec(weak_learn.CalibratedBrgOracle(gamma=gamma, margin=1e-3),
                                      m0=m)
    config = recursive.BoostConfig.from_defaults(m=m, gamma=gamma, seed=seed)
    return BoostInputs(dataset=gen.dataset, columns=gen.finite_class.columns, spec=spec,
                       config=config)


def near_duplicate_class(gen: np.random.Generator, labels: int, rows: int, columns: int,
                         flip: float):
    """A random target row plus rows that each differ from it on their own block of columns.

    Every other row relabels a disjoint block of ``flip * columns`` columns,
    so all rows are distinct and each is wrong on the same share of columns.
    The target sits at a random index in the upper half of the table, so the
    ERM learner's tie-break to the lowest row picks a wrong row whenever one
    fits its sample as well as the target does.
    """
    block = max(1, round(flip * columns))
    if (rows - 1) * block > columns:
        raise ValueError(f"{rows - 1} blocks of {block} columns do not fit in {columns}")
    target = gen.integers(0, labels, size=columns)
    order = gen.permutation(columns)
    target_row = int(gen.integers(rows // 2, rows))
    table = np.repeat(target[np.newaxis, :], rows, axis=0)
    others = [r for r in range(rows) if r != target_row]
    for b, r in enumerate(others):
        cols = order[b * block:(b + 1) * block]
        table[r, cols] = (target[cols] + gen.integers(1, labels, size=cols.size)) % labels
    fc = oig.FiniteClass(table=table, columns=tuple(range(columns)),
                         alphabet=tuple(range(labels)))
    return fc, target_row


def build_boost_erm(seed: int, index: int, size: dict) -> BoostInputs:
    gen = core.RandomStream(seed, ("boost-erm", index)).generator()
    fc, target_row = near_duplicate_class(gen, size["labels"], size["rows"], size["columns"],
                                          size["flip"])
    target = fc.table[target_row]
    xs = gen.integers(0, fc.n, size=size["m"])
    ds = core.make_dataset([(int(x), int(target[x])) for x in xs], alphabet=fc.alphabet)
    m0 = size["m0"]
    spec = weak_learn.WeakLearnerSpec(weak_learn.ErmFiniteLearner(fc), m0=m0)
    config = recursive.BoostConfig.from_defaults(m=ds.m, gamma=size["gamma"], m0=m0,
                                                 seed=int(gen.integers(2**31)))
    return BoostInputs(dataset=ds, columns=fc.columns, spec=spec, config=config,
                       target=tuple(int(v) for v in target))


def run_boost(inp: BoostInputs, clock: Clock, record_path) -> Outcome:
    log = weak_learn.BrgAuditLog()
    with clock("train"):
        trained = recursive.recursive_boost(inp.dataset, inp.spec, inp.config, audit_log=log)
    with clock("dump"):
        trained.record.dump(record_path)
    with clock("replay"):
        record = compression.CompressionRecord.load(record_path)
        replayed = compression.reconstruct(record, inp.dataset, inp.spec)
    with clock("predict"):
        predicted = [replayed.predict(x) for x in inp.columns]
    notes = {}
    if inp.target:
        wrong = sum(p != y for p, y in zip(predicted, inp.target))
        notes["true_error"] = wrong / len(inp.target)
    return Outcome(record_r=compression.compression_size(trained.record),
                   data=dict(trained=trained, log=log, predicted=predicted), notes=notes)


def check_boost(inp: BoostInputs, out: Outcome) -> list:
    trained, log = out.data["trained"], out.data["log"]
    problems = []
    if not log.all_passed:
        problems.append(f"{sum(not a.passed for a in log.entries)} of {len(log)} audits failed")
    problems += consistency_problems(trained.predict, inp.dataset)
    m0 = inp.config.m0 if inp.config.m0 is not None else inp.spec.m0
    expected = m0 * (trained.hint_result.rounds_run
                     + trained.chain.realized_phases * inp.config.T)
    if out.record_r != expected:
        problems.append(f"record size {out.record_r} != m0*(hint_rounds + phases*T) = "
                        f"{expected}")
    if [trained.predict(x) for x in inp.columns] != out.data["predicted"]:
        problems.append("the replayed predictor disagrees with the trained one")
    return problems


# ---------------------------------------------------------------------------
# listpac-oig: k-list PAC learning on Hamming-ball classes, record dump, load, replay.


@dataclass
class ListPacInputs:
    finite_class: object
    dataset: object
    k: int
    seed: int


def hamming_ball_class(gen: np.random.Generator, labels: int, columns: int):
    """The all-zero row and every row that relabels exactly one of its columns.

    Its one-inclusion graph is a star around the all-zero row, so the
    shattering dimension is 1. Around this centre the greedy cover needs
    three or four rounds and the wrong-label game then runs once; around a
    random centre the first single-example list was already right on every
    column, so no game ran. The seed only shuffles the rows.
    """
    centre = np.zeros(columns, dtype=np.int64)
    rows = [centre]
    for col in range(columns):
        for label in range(1, labels):
            row = centre.copy()
            row[col] = label
            rows.append(row)
    table = np.array(rows)[gen.permutation(len(rows))]
    fc = oig.FiniteClass(table=table, columns=tuple(range(columns)),
                         alphabet=tuple(range(labels)))
    return fc, centre


def build_listpac_oig(seed: int, index: int, size: dict) -> ListPacInputs:
    gen = core.RandomStream(seed, ("listpac-oig", index)).generator()
    fc, target = hamming_ball_class(gen, size["labels"], size["columns"])
    # Sorted by column: the cover's subset search takes the first subset, in
    # example order, that clears its coverage bar, so the order fixes which
    # example it meets first and keeps the number of cover rounds the same
    # on every seed.
    xs = np.sort(gen.integers(0, fc.n, size=size["m"]))
    ds = core.make_dataset([(int(x), int(target[x])) for x in xs], alphabet=fc.alphabet)
    return ListPacInputs(finite_class=fc, dataset=ds, k=size["k"], seed=seed)


def run_listpac_oig(inp: ListPacInputs, clock: Clock, record_path) -> Outcome:
    fc, ds = inp.finite_class, inp.dataset
    # oig keeps a process-wide cache of orientations keyed by class contents.
    # Every operation starts from the empty cache a fresh process has, so a
    # round does not reuse what the previous round, or the previous input of
    # the same shape, computed; replay still reuses what its own training
    # computed, as it would in one process.
    getattr(oig, "_ORIENT_CACHE", {}).clear()
    with clock("train"):
        trained = oig.k_list_pac_learn(fc, ds, inp.k, seed=inp.seed)
    with clock("dump"):
        trained.record.dump(record_path)
    with clock("replay"):
        record = compression.CompressionRecord.load(record_path)
        replayed = compression.reconstruct(record, ds, finite_class=fc)
    with clock("predict"):
        lists = [replayed(x) for x in fc.columns]
    return Outcome(record_r=trained.compression_size,
                   data=dict(trained=trained, lists=lists))


def check_listpac_oig(inp: ListPacInputs, out: Outcome) -> list:
    trained, lists = out.data["trained"], out.data["lists"]
    ds, k = inp.dataset, inp.k
    problems = []
    missed = sum(int(ds.labels[i]) not in trained.mu(x) for i, x in enumerate(ds.instances))
    if missed:
        problems.append(f"{missed} training label(s) missing from their list")
    trained_lists = [trained.mu(x) for x in inp.finite_class.columns]
    if any(len(lst) > k for lst in trained_lists + lists):
        problems.append(f"a list has more than k={k} labels")
    if trained_lists != lists:
        problems.append("the replayed lists differ from the trained lists")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, index, size) -> inputs
    run: Callable  # (inputs, clock, record_path) -> Outcome
    check: Callable  # (inputs, outcome) -> list of problems
    batch: int  # inputs per round; every round runs the same inputs

    def inputs(self, seed: int, size: dict) -> list:
        return [self.build(seed, i, size) for i in range(self.batch)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hedge-floor", build_hedge_floor, run_hedge_floor, check_hedge_floor,
                 batch=1),
        Workload("boost-oracle", build_boost_oracle, run_boost, check_boost, batch=1),
        Workload("boost-erm", build_boost_erm, run_boost, check_boost, batch=1),
        Workload("listpac-oig", build_listpac_oig, run_listpac_oig, check_listpac_oig,
                 batch=1),
    )
}
