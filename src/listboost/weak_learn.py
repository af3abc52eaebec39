"""Weak learners and the better-than-random-guess (BRG) audit.

The weak-learning contract: given a sample and a hint list function mu of
size k, the returned hypothesis should satisfy, against the distribution the
sample came from,

    accuracy >= (1/k + gamma) * coverage,

where coverage is the probability mass of examples whose true label appears
in their hint list. The universal hint is audited against plain accuracy
>= gamma instead (the bounded-list term 1/k has no content when the list is
"everything"), which also keeps every pipeline's behavior independent of how
many never-used labels the alphabet carries.

Learners receive the drawn sample, repeats kept, as the training set's
``Dataset.subset``, not a weighted set; a finite-class learner gathers its
columns through the class's memo of the shared key table. Test-oracle
learners may additionally declare ``distribution_aware`` and get the exact
weighted view; those are not valid compression-scheme components and are
flagged as such.

A hypothesis is a deterministic ``predict`` function of one instance. Over a
dataset, ``predict_distinct`` labels each distinct instance once and
``group_ids`` gathers the result; a finite-class row (``RowHypothesis``)
labels them all with one gather from its table row, at the column ids its
class keeps for the dataset's key table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Dataset, ExampleDistribution, ListFunction, coverage_mask
from .errors import (
    InvalidGamma,
    InvalidParams,
    NonNumericInstance,
)

AUDIT_TOLERANCE = 1e-12


class WeakHypothesis:
    """A trained weak hypothesis: a deterministic instance -> label function."""

    __slots__ = ("predict",)

    def __init__(self, predict: Callable):
        self.predict = predict

    def predict_distinct(self, instances) -> np.ndarray:
        """Labels of distinct instances as an int64 array; predict runs once on each."""
        return np.array([self.predict(x) for x in instances], dtype=np.int64)

    def predictions_for(self, dataset: Dataset) -> np.ndarray:
        """One prediction per example of ``dataset``; predict runs once per distinct instance."""
        return self.predict_distinct(dataset.unique_instances)[dataset.group_ids]


class RowHypothesis(WeakHypothesis):
    """One row of a finite class: a label per class column, read off its table."""

    __slots__ = ("finite_class", "labels")

    def __init__(self, finite_class: FiniteClass, row: int):
        self.finite_class = finite_class
        self.labels = finite_class.table[row]

    def predict(self, x) -> int:
        return int(self.labels[self.finite_class.column_of(x)])

    def predict_distinct(self, instances) -> np.ndarray:
        return self.labels[self.finite_class.columns_at(instances)]


class WeakLearner:
    """Base class; subclasses implement ``train(sample, mu) -> WeakHypothesis``."""

    name = "weak-learner"
    distribution_aware = False
    # True when the trained hypothesis is a pure function of (sample, mu),
    # which is what a sample-compression reconstruction is allowed to assume.
    compression_safe = True

    def train(self, sample: Dataset, mu: ListFunction) -> WeakHypothesis:
        raise NotImplementedError

    def train_weighted(self, ctx: "TrainContext", dist: ExampleDistribution,
                       sample: Dataset, mu: ListFunction) -> WeakHypothesis:
        """Extended entry point for distribution-aware test oracles."""
        raise NotImplementedError


@dataclass(frozen=True)
class WeakLearnerSpec:
    """A learner together with the per-call sample size it was promised."""

    learner: WeakLearner
    m0: int

    def __post_init__(self):
        if self.m0 < 1:
            raise InvalidParams("m0 must be at least 1")


class TrainContext:
    """Precomputed per-phase views handed to distribution-aware learners.

    Built once per hint/boosting phase: the hint lists for every training
    instance, the coverage indicator, and a per-unique-instance summary used
    by the calibrated oracle. Honest learners never see this.
    """

    def __init__(self, dataset: Dataset, mu: ListFunction):
        self.dataset = dataset
        self.mu = mu
        uniq = dataset.unique_instances
        self.unique_lists = tuple(mu(x) for x in uniq)
        gid = dataset.group_ids
        # majority label per unique instance (ties -> smallest label)
        n_labels = len(dataset.alphabet)
        tally = np.bincount(gid * n_labels + dataset.labels, minlength=len(uniq) * n_labels)
        self.group_label = tally.reshape(len(uniq), n_labels).argmax(axis=1)
        self.covered = coverage_mask(dataset, mu)
        # a deterministic wrong label per unique instance: first hint label
        # that disagrees with the majority label, else first alphabet label
        self.group_wrong = np.empty(len(uniq), dtype=np.int64)
        for g, lst in enumerate(self.unique_lists):
            v = int(self.group_label[g])
            wrong = next((c for c in lst if c != v), None)
            if wrong is None:
                wrong = next(c for c in dataset.alphabet if c != v)
            self.group_wrong[g] = int(wrong)


@dataclass(frozen=True)
class BrgAudit:
    """One audit entry: did a hypothesis clear its weak-learning threshold?"""

    tag: str
    list_name: str
    k: int
    universal: bool
    coverage: float
    accuracy: float
    threshold: float
    slack: float
    passed: bool


class BrgAuditLog:
    """Accumulates audit entries across weak-learner calls."""

    def __init__(self):
        self.entries: list = []

    def append(self, audit: BrgAudit):
        self.entries.append(audit)

    def __len__(self):
        return len(self.entries)

    @property
    def pass_rate(self) -> float:
        if not self.entries:
            return 1.0
        return sum(1 for a in self.entries if a.passed) / len(self.entries)

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.entries)


def _validate_gamma(gamma: float):
    if not (0.0 < gamma < 1.0):
        raise InvalidGamma(f"gamma must be in (0, 1), got {gamma!r}")


def audit_from_arrays(correct_mass: float, coverage: float, mu: ListFunction,
                      gamma: float, tag: str = "") -> BrgAudit:
    """Build an audit entry from already-aggregated weighted masses."""
    _validate_gamma(gamma)
    k = mu.declared_size
    if mu.is_universal:
        threshold = gamma
        coverage = 1.0
    else:
        threshold = (1.0 / k + gamma) * coverage
    slack = correct_mass - threshold
    return BrgAudit(
        tag=tag,
        list_name=mu.name,
        k=k,
        universal=mu.is_universal,
        coverage=float(coverage),
        accuracy=float(correct_mass),
        threshold=float(threshold),
        slack=float(slack),
        passed=bool(slack >= -AUDIT_TOLERANCE),
    )


def audit_brg(hypothesis: WeakHypothesis, dataset: Dataset, dist: ExampleDistribution,
              mu: ListFunction, gamma: float, log: Optional[BrgAuditLog] = None,
              tag: str = "") -> BrgAudit:
    """Audit a hypothesis against the weighted BRG threshold.

    Pass means accuracy >= (1/k + gamma) * coverage up to a 1e-12 slack
    (plain accuracy >= gamma for the universal hint).
    """
    _validate_gamma(gamma)
    if dist.size != dataset.m:
        raise InvalidParams("distribution and dataset sizes differ")
    w = dist.weights
    preds = hypothesis.predictions_for(dataset)
    correct_mass = float(w[preds == dataset.labels].sum())
    coverage = float(w[coverage_mask(dataset, mu)].sum())
    audit = audit_from_arrays(correct_mass, coverage, mu, gamma, tag=tag)
    if log is not None:
        log.append(audit)
    return audit


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------


class ErmFiniteLearner(WeakLearner):
    """Pick the class member with the best unweighted sample accuracy.

    Ties break to the lowest row index. The returned hypothesis is the chosen
    row itself, one ``RowHypothesis`` per row for the learner's lifetime.
    """

    def __init__(self, finite_class: FiniteClass):
        self.finite_class = finite_class
        self.name = f"erm[{finite_class.size}x{finite_class.n}]"
        self._rows = {}  # row index -> its hypothesis; at most finite_class.size entries

    def train(self, sample: Dataset, mu=None) -> WeakHypothesis:
        if sample.m == 0:
            raise InvalidParams("empty training sample")
        row = int(np.argmax(self.finite_class.agreement(sample)))  # first max = lowest index
        if row not in self._rows:
            self._rows[row] = RowHypothesis(self.finite_class, row)
        return self._rows[row]


class TooWeakLearner(ErmFiniteLearner):
    """The two-hypothesis learner for the three-point gadget {a, b, c}.

    Candidate one sends a and b to label 0, candidate two sends them to
    label 1; both send c to label 2. They are the two rows of a finite class,
    so this is ERM: the higher sample accuracy wins, ties go to candidate one.
    Each call clears the 1/2 accuracy mark on the gadget, yet no vote over the
    returned hypotheses can get all three points right.
    """

    def __init__(self):
        from .oig import FiniteClass  # oig imports this module

        super().__init__(FiniteClass(table=[[0, 0, 2], [1, 1, 2]], columns=("a", "b", "c"),
                                     alphabet=(0, 1, 2)))
        self.name = "too-weak"


class StumpLearner(WeakLearner):
    """Exhaustive one-feature threshold stumps over numeric instances.

    Searches every (feature, threshold, left label, right label) combination,
    where thresholds sit at midpoints of consecutive distinct feature values
    (plus one below the minimum so constant predictors are included) and
    labels come from the union of the sample's hint lists. Ties break
    lexicographically on (feature, threshold, left label, right label).
    """

    name = "stump"

    def train(self, sample: Dataset, mu) -> WeakHypothesis:
        if sample.m == 0:
            raise InvalidParams("empty training sample")
        xs = sample.unique_instances
        for x in xs:
            if not isinstance(x, tuple):
                raise NonNumericInstance(f"stumps need numeric feature vectors, got {x!r}")
        dims = set(map(len, xs))
        if len(dims) != 1:
            raise NonNumericInstance(f"inconsistent feature dimensions: {sorted(dims)}")
        X = np.array(xs, dtype=np.float64)[sample.group_ids]
        y = sample.labels
        labels = sorted(set(itertools.chain.from_iterable(map(mu, xs))))
        if not labels:
            raise InvalidParams("hint lists over the sample are all empty")
        lab_arr = np.array(labels, dtype=np.int64)
        n_features = X.shape[1]
        best = None  # (hits, f, thr, l_le, l_gt)
        for f in range(n_features):
            vals = np.unique(X[:, f])
            thresholds = [float(vals[0] - 1.0)]
            thresholds += [float((a + b) / 2.0) for a, b in zip(vals[:-1], vals[1:])]
            for thr in thresholds:
                left = X[:, f] <= thr
                left_hits = (y[left][None, :] == lab_arr[:, None]).sum(axis=1)
                right_hits = (y[~left][None, :] == lab_arr[:, None]).sum(axis=1)
                li = int(np.argmax(left_hits))
                ri = int(np.argmax(right_hits))
                hits = int(left_hits[li] + right_hits[ri])
                if best is None or hits > best[0]:
                    best = (hits, f, thr, int(lab_arr[li]), int(lab_arr[ri]))
        hits, f, thr, l_le, l_gt = best

        def predict(x):
            if not isinstance(x, tuple) or len(x) != n_features:
                raise NonNumericInstance(f"stump expected a {n_features}-d vector, got {x!r}")
            return l_le if x[f] <= thr else l_gt

        return WeakHypothesis(predict=predict)


class ConstantLearner(WeakLearner):
    """Always predicts one fixed label; a null control."""

    def __init__(self, label: int):
        self.label = int(label)
        self.name = f"constant[{label}]"

    def train(self, sample, mu=None) -> WeakHypothesis:
        lbl = self.label
        return WeakHypothesis(predict=lambda x: lbl)


class CalibratedBrgOracle(WeakLearner):
    """Test oracle that clears the BRG threshold with as little margin as it can.

    It reads the exact example distribution, sorts covered instances by
    weighted correct mass, and marks just enough of them truthful to reach
    the audit threshold; everything else gets a deliberately wrong label.
    Not a legitimate compression-scheme component (it looks beyond its
    sample), so ``compression_safe`` is false.
    """

    distribution_aware = True
    compression_safe = False

    def __init__(self, gamma: float, margin: float = 1e-9):
        _validate_gamma(gamma)
        self.gamma = float(gamma)
        self.margin = float(margin)
        self.name = f"brg-oracle[{gamma:g}]"

    def train(self, sample, mu=None) -> WeakHypothesis:
        raise InvalidParams("calibrated oracle requires the weighted entry point")

    def train_weighted(self, ctx: TrainContext, dist: ExampleDistribution,
                       sample=None, mu: ListFunction = None) -> WeakHypothesis:
        mu = mu if mu is not None else ctx.mu
        ds = ctx.dataset
        w = dist.weights
        gid = ds.group_ids
        n_groups = len(ds.unique_instances)
        correct_ix = ctx.covered & (ds.labels == ctx.group_label[gid])
        contrib = np.bincount(gid[correct_ix], weights=w[correct_ix], minlength=n_groups)
        if mu.is_universal:
            target = self.gamma + self.margin
        else:
            coverage = float(w[ctx.covered].sum())
            target = (1.0 / mu.declared_size + self.gamma) * coverage + self.margin
        order = np.argsort(-contrib, kind="stable")
        gains = np.cumsum(contrib[order])
        cut = int(np.searchsorted(gains, target, side="left")) + 1
        marked = order[:min(cut, n_groups)]
        group_pred = ctx.group_wrong.copy()
        group_pred[marked] = ctx.group_label[marked]
        lookup = dict(zip(ds.unique_instances, group_pred.tolist()))
        fallback = int(ds.alphabet[0])
        return WeakHypothesis(predict=lambda x: lookup.get(x, fallback))


class CallCountingLearner(WeakLearner):
    """Wraps another learner and counts training calls."""

    def __init__(self, inner: WeakLearner):
        self.inner = inner
        self.calls = 0
        self.name = f"counted[{inner.name}]"

    @property
    def distribution_aware(self):
        return self.inner.distribution_aware

    @property
    def compression_safe(self):
        return self.inner.compression_safe

    def train(self, sample, mu=None):
        self.calls += 1
        return self.inner.train(sample, mu)

    def train_weighted(self, ctx, dist, sample=None, mu=None):
        self.calls += 1
        return self.inner.train_weighted(ctx, dist, sample, mu)
