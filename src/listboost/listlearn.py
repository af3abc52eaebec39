"""Conversions between weak learners and list learners.

``weak_to_list`` runs the multiplicative-weights rounds against the universal
hint and keeps, per instance, the labels whose vote count strictly exceeds
T/k, where k is the smallest integer with 1/k < gamma. Since the T votes sum
to T, at most k - 1 labels can clear that bar, so the output is a
(k-1)-list function with no explicit truncation needed on training points.

``list_to_weak`` goes the other way: train q candidate hypotheses by picking
a uniformly random position out of each candidate's list, then keep the one
with the best held-out validation accuracy. ``list_boost`` composes the two,
turning a k0-list learner with list error eps0 < 1/2 into a list learner
with the fixed output size floor(k0 / (1 - 2*eps0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .compression import (RECORD_FORMAT, CompressionRecord, check_rebuilt, check_record_ids,
                          hedge_group, read_meta)
from .core import (
    Dataset,
    ListFunction,
    RandomStream,
    coverage_mask,
    ordered_dedup,
    stable_digest,
)
from .errors import (InsufficientData, InvalidGamma, InvalidParams, NonDeterministicLearner,
                     PhaseFailure)
from .hedge import HedgeResult, replay_hedge, run_hedge
from .recursive import default_learning_rate, default_round_count
from .weak_learn import BrgAuditLog, WeakHypothesis, WeakLearner, WeakLearnerSpec


def smallest_k(gamma: float) -> int:
    """The smallest integer k with 1/k < gamma (so gamma <= 1/(k-1))."""
    if not (0.0 < gamma <= 1.0):
        raise InvalidGamma(f"gamma must be in (0, 1], got {gamma!r}")
    k = 1
    while not (1.0 / k < gamma):
        k += 1
    return k


def conversion_budgets(k: int, epsilon: float, delta: float) -> tuple:
    """Candidate count q = ceil(2k ln(2/delta)) and validation size r_val.

    r_val = ceil(10 ln(2q/delta) / (epsilon/k)^2).
    """
    q = math.ceil(2.0 * k * math.log(2.0 / delta))
    r_val = math.ceil(10.0 * math.log(2.0 * q / delta) / (epsilon / k)**2)
    return q, r_val


def _vote_entry(counts, k: int, T: int) -> tuple:
    """Labels whose vote count strictly clears T/k (at most k - 1), score-descending order."""
    return tuple(sorted((y for y, c in enumerate(counts.tolist()) if c * k > T),
                        key=lambda y: (-counts[y], y)))


@dataclass
class WeakToListResult:
    mu: ListFunction
    k: int
    sigma: float
    T: int
    eta: float
    hedge: HedgeResult
    record: CompressionRecord
    consistent_on_train: bool

    def predict_list(self, x) -> tuple:
        return self.mu(x)


def _assemble_weak_to_list(dataset: Dataset, result: HedgeResult, recorded,
                           gamma: float, k: int, sigma: float, T: int, eta: float,
                           spec: WeakLearnerSpec, seed: int) -> WeakToListResult:
    """The list and record of a run; replay passes the ``recorded`` group to check."""
    group = hedge_group("rounds", result, recorded)
    if len(result.rounds) != T:
        raise InvalidParams(f"record group rounds has {len(result.rounds)} rounds, not T={T}")
    score = result.score
    mu = ListFunction.tabled(lambda x: _vote_entry(score.counts(x), k, T),
                             dataset.unique_instances, k - 1, f"weak-to-list[k={k}]")
    missed = dataset.m - int(coverage_mask(dataset, mu).sum())
    if missed:
        raise PhaseFailure(
            1, lost=missed,
            message=f"{missed} training label(s) at or below the vote threshold T/k",
        )
    meta = {
        "gamma": gamma,
        "k": k,
        "sigma": sigma,
        "T": T,
        "eta": eta,
        "m0": spec.m0,
        "seed": seed,
        "m": dataset.m,
        "alphabet_size": len(dataset.alphabet),
        "learner": spec.learner.name,
        "compression_safe": bool(spec.learner.compression_safe),
    }
    record = CompressionRecord(pipeline="list-boost", meta=meta, groups=[group])
    return WeakToListResult(mu=mu, k=k, sigma=sigma, T=T, eta=eta, hedge=result,
                            record=record, consistent_on_train=True)


def weak_to_list(dataset: Dataset, spec: WeakLearnerSpec, gamma: float,
                 T: Optional[int] = None, eta: Optional[float] = None,
                 seed: int = 0, audit_log: Optional[BrgAuditLog] = None) -> WeakToListResult:
    """Turn a gamma-edge weak learner into a (k-1)-list function over the sample."""
    k = smallest_k(gamma)  # at least 2: smallest_k rejects gamma > 1
    sigma = gamma - 1.0 / k
    m = dataset.m
    if T is None:
        T = default_round_count(m, sigma)
    if eta is None:
        eta = default_learning_rate(m, T)
    mu0 = ListFunction.universal(dataset.alphabet)
    rs = RandomStream(seed, ("weak-to-list",))
    result = run_hedge(dataset, mu0, spec, T, eta, rs.child("rounds"), gamma=gamma,
                       audit_log=audit_log, audit_tag="w2l:")
    return _assemble_weak_to_list(dataset, result, None, gamma, k, sigma, T, eta, spec, seed)


def replay_weak_to_list(record: CompressionRecord, dataset: Dataset,
                        spec: WeakLearnerSpec) -> WeakToListResult:
    """Rebuild the list function from recorded round indices; k and sigma follow from gamma."""
    meta = read_meta(record, ("gamma", "T", "eta", "m0", "seed"))
    check_record_ids(record, dataset.m)
    if record.format != RECORD_FORMAT and isinstance(spec.learner, ListDerivedWeakLearner):
        raise NonDeterministicLearner("ListDerivedWeakLearner no longer seeds as a /1 run did")
    gamma = meta["gamma"]
    k = smallest_k(gamma)
    sigma = gamma - 1.0 / k
    effective = WeakLearnerSpec(spec.learner, int(meta["m0"]))
    group = record.group("rounds")
    mu0 = ListFunction.universal(dataset.alphabet)
    result = replay_hedge(dataset, mu0, effective, [s.indices for s in group.slots],
                          meta["eta"], gamma=gamma, audit_tag="w2l:", where=group.tag,
                          draws=group.draws)
    res = _assemble_weak_to_list(dataset, result, group, gamma, k, sigma, int(meta["T"]),
                                 meta["eta"], effective, int(meta["seed"]))
    check_rebuilt(record, res.record)
    return res


class ListLearner:
    """Base class for learners that output list functions.

    ``min_sample`` is the smallest per-call sample the learner is happy with;
    the conversion wrapper uses it to size its training blocks.
    """

    name = "list-learner"
    list_size = 1
    min_sample = 1

    def train(self, sample: Dataset) -> ListFunction:
        raise NotImplementedError


class ErmListLearner(ListLearner):
    """Top-k rows of a finite class by sample accuracy, as a k-list function."""

    def __init__(self, finite_class, k: int):
        if k < 1:
            raise InvalidParams("list size k must be at least 1")
        self.finite_class = finite_class
        self.k = k
        self.list_size = k
        self.name = f"erm-list[k={k}]"

    def train(self, sample: Dataset) -> ListFunction:
        if sample.m == 0:
            raise InvalidParams("empty training sample")
        fc = self.finite_class
        order = np.argsort(-fc.agreement(sample), kind="stable")[: self.k]
        rows = [int(r) for r in order]

        def extend(x):
            col = fc.column_of(x)
            return ordered_dedup(int(fc.table[r, col]) for r in rows)

        return ListFunction.composed(extend, declared_size=self.k,
                                     name=f"{self.name}:rows{rows}")


def _pad_pick(lst: tuple, j: int, alphabet: tuple) -> int:
    """Entry j of the list, repeating the last entry for short lists."""
    if not lst:
        return int(alphabet[0])
    if j < len(lst):
        return int(lst[j])
    return int(lst[-1])


@dataclass
class ListToWeakResult:
    hypothesis: WeakHypothesis
    k: int
    epsilon: float
    delta: float
    target_gamma: float
    q: int
    r_val: int
    block_size: int
    chosen: int
    positions: tuple
    val_accuracies: tuple


def list_to_weak(dataset: Dataset, list_learner: ListLearner, k: int,
                 epsilon: float, delta: float, rng: RandomStream) -> ListToWeakResult:
    """Pick the best of q single-label projections of a k-list learner.

    Candidate i trains on its own block of the data and predicts position
    j_i (uniform over [k]) of the returned list; all candidates are scored
    once per distinct instance of a final held-out validation block, and the
    best wins (ties to the lowest index). Its accuracy target is (1-2*eps)/k.
    """
    if k < 1:
        raise InvalidParams("list size k must be at least 1")
    if not (0.0 < epsilon < 0.5):
        raise InvalidParams(f"epsilon must be in (0, 1/2), got {epsilon!r}")
    if not (0.0 < delta < 1.0):
        raise InvalidParams(f"delta must be in (0, 1), got {delta!r}")
    q, r_val = conversion_budgets(k, epsilon, delta)
    m = dataset.m
    block = (m - r_val) // q
    if r_val >= m or block < max(1, list_learner.min_sample):
        raise InsufficientData(
            f"need q={q} training blocks of at least "
            f"{max(1, list_learner.min_sample)} example(s) plus r_val={r_val} "
            f"validation examples; m={m} is too small"
        )
    val = dataset.subset(range(m - r_val, m))
    alphabet = dataset.alphabet
    candidates = []
    positions = []
    for i in range(1, q + 1):
        mu_i = list_learner.train(dataset.subset(range((i - 1) * block, i * block)))
        j_i = int(rng.child("candidate", i).generator().integers(k))
        positions.append(j_i)
        candidates.append((mu_i, j_i))
    accs = []
    for mu_i, j_i in candidates:
        hits = coverage_mask(val, lambda x: (_pad_pick(mu_i(x), j_i, alphabet),))
        accs.append(int(hits.sum()) / r_val)
    best = int(np.argmax(np.asarray(accs)))  # first max = lowest candidate index
    mu_b, j_b = candidates[best]

    def predict(x):
        return _pad_pick(mu_b(x), j_b, alphabet)

    return ListToWeakResult(
        hypothesis=WeakHypothesis(predict=predict), k=k, epsilon=epsilon, delta=delta,
        target_gamma=(1.0 - 2.0 * epsilon) / k, q=q, r_val=r_val, block_size=block,
        chosen=best, positions=tuple(positions), val_accuracies=tuple(accs),
    )


class ListDerivedWeakLearner(WeakLearner):
    """A weak learner built by projecting a list learner to single labels.

    The per-call randomness is seeded from a digest of the drawn sample's key ids
    and labels as bytes, so training remains a pure function of the sample.
    """

    def __init__(self, list_learner: ListLearner, k: int, epsilon: float,
                 delta: float, base_seed: int = 0):
        self.list_learner = list_learner
        self.k = k
        self.epsilon = epsilon
        self.delta = delta
        self.base_seed = base_seed
        self.name = f"list-derived[{list_learner.name}]"

    def train(self, sample: Dataset, mu=None) -> WeakHypothesis:
        if sample.m == 0:
            raise InvalidParams("empty training sample")
        tag = stable_digest((sample.key_ids.astype("<i8").tobytes(),
                             sample.labels.astype("<i8").tobytes()))
        rng = RandomStream(self.base_seed, ("list-derived", tag))
        return list_to_weak(sample, self.list_learner, self.k, self.epsilon,
                            self.delta, rng).hypothesis


@dataclass
class ListBoostResult:
    mu: ListFunction
    k0: int
    eps0: float
    gamma: float
    size_bound: int
    inner: WeakToListResult

    def predict_list(self, x) -> tuple:
        return self.mu(x)


def list_boost(dataset: Dataset, list_learner: ListLearner, k0: int, eps0: float,
               delta: float = 0.05, seed: int = 0, m0: Optional[int] = None,
               T: Optional[int] = None,
               audit_log: Optional[BrgAuditLog] = None) -> ListBoostResult:
    """Shrink a k0-list learner with list error eps0 to fixed size floor(k0/(1-2*eps0))."""
    if not (0.0 <= eps0 < 0.5):
        raise InvalidParams(f"eps0 must be in [0, 1/2), got {eps0!r}")
    if k0 < 1:
        raise InvalidParams("k0 must be at least 1")
    gamma = (1.0 - 2.0 * eps0) / k0
    eps_for_conversion = eps0 if eps0 > 0 else 0.01
    derived = ListDerivedWeakLearner(list_learner, k0, eps_for_conversion, delta,
                                     base_seed=seed)
    if m0 is None:
        q, r_val = conversion_budgets(k0, eps_for_conversion, delta)
        m0 = q * max(1, list_learner.min_sample) + r_val
    spec = WeakLearnerSpec(derived, m0)
    inner = weak_to_list(dataset, spec, gamma, T=T, seed=seed, audit_log=audit_log)
    size_bound = inner.k - 1
    floor_bound = math.floor(k0 / (1.0 - 2.0 * eps0))
    if size_bound != floor_bound:
        # only reachable through float rounding at an exact 1/k boundary
        size_bound = min(size_bound, floor_bound)
    return ListBoostResult(mu=inner.mu, k0=k0, eps0=eps0, gamma=gamma,
                           size_bound=size_bound, inner=inner)


def evaluate_list_error(mu, dataset: Dataset) -> float:
    """Empirical Pr[y not in mu(x)] over the dataset."""
    return int((~coverage_mask(dataset, mu)).sum()) / dataset.m
