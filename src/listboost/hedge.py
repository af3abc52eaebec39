"""Multiplicative-weights boosting rounds and score-based label elimination.

Weights start uniform and are kept in log space, so no underflow rescaling is
ever needed. Each round: normalize to a distribution, draw the learner's
sample i.i.d. from it, train, then multiply every correctly-classified
example's weight by exp(-eta). The per-round accuracy alpha_t is always
measured on the full weighted dataset, not the drawn sample. The score table
counts, for every (instance, label), how many rounds voted that label; row
sums equal the round count exactly because every hypothesis casts one vote.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Dataset, ListFunction, RandomStream, normalize
from .errors import EmptyCandidates, InvalidParams
from .weak_learn import (
    BrgAudit,
    BrgAuditLog,
    TrainContext,
    WeakLearnerSpec,
    audit_from_arrays,
    coverage_mask,
)


class ScoreTable:
    """Vote counts H(x, y) accumulated over the trained hypotheses.

    Counts are exact integers. Lookups for instances outside the training
    set evaluate every stored hypothesis once and are cached.
    """

    def __init__(self, hypotheses, dataset: Dataset, predictions: np.ndarray):
        self.hypotheses = list(hypotheses)
        self.train_dataset = dataset
        self.predictions = predictions  # shape (T, m)
        self._rep = None
        self._train_counts = {}
        self._extra_counts = {}

    @property
    def total(self) -> int:
        return len(self.hypotheses)

    def _representative(self, x):
        if self._rep is None:
            rep = {}
            for i, inst in enumerate(self.train_dataset.instances):
                rep.setdefault(inst, i)
            self._rep = rep
        return self._rep.get(x)

    def counts(self, x) -> dict:
        """Label -> vote count for instance x; values sum to ``total``."""
        rep = self._representative(x)
        if rep is not None:
            if x not in self._train_counts:
                col = self.predictions[:, rep]
                self._train_counts[x] = dict(Counter(int(v) for v in col))
            return self._train_counts[x]
        if x not in self._extra_counts:
            self._extra_counts[x] = dict(Counter(int(h.predict(x)) for h in self.hypotheses))
        return self._extra_counts[x]

    def score(self, x, y) -> int:
        return self.counts(x).get(int(y), 0)


@dataclass
class HedgeRound:
    t: int
    alpha: float
    entropy: float
    indices: tuple
    audit: Optional[BrgAudit]
    hypothesis_source: str


@dataclass
class HedgeResult:
    score: ScoreTable
    rounds: list
    eta: float
    final_log_weights: np.ndarray
    alphas: np.ndarray
    correct_counts: np.ndarray  # H(x_i, y_i) per training index

    @property
    def round_indices(self) -> list:
        return [r.indices for r in self.rounds]

    @property
    def audits(self) -> list:
        return [r.audit for r in self.rounds if r.audit is not None]

    def regret_bound_rhs(self) -> np.ndarray:
        """Per-example right side: ln(m)/eta + eta*T + H(x_i, y_i)."""
        m = self.final_log_weights.size
        T = self.score.total
        base = np.log(m) / self.eta + self.eta * T
        return base + self.correct_counts

    def regret_satisfied(self, rel_tol: float = 1e-6) -> bool:
        lhs = float(self.alphas.sum())
        rhs = self.regret_bound_rhs()
        return bool(np.all(lhs <= rhs + rel_tol * np.maximum(1.0, np.abs(rhs))))

    def trace_rows(self) -> list:
        rows = []
        for r in self.rounds:
            rows.append(
                {
                    "t": r.t,
                    "alpha_t": r.alpha,
                    "weight_entropy": r.entropy,
                    "audit_pass": (None if r.audit is None else bool(r.audit.passed)),
                }
            )
        return rows


def _run_rounds(dataset: Dataset, mu: ListFunction, spec: WeakLearnerSpec, T: int,
                eta: float, index_source: Callable, gamma: Optional[float],
                audit_log: Optional[BrgAuditLog], audit_tag: str) -> HedgeResult:
    if T < 1:
        raise InvalidParams("round count T must be at least 1")
    if not (eta > 0.0) or not np.isfinite(eta):
        raise InvalidParams(f"eta must be a positive finite float, got {eta!r}")
    m = dataset.m
    labels = dataset.labels
    learner = spec.learner
    ctx = TrainContext(dataset, mu) if learner.distribution_aware else None
    covered = ctx.covered if ctx is not None else coverage_mask(dataset, mu)
    log_w = np.zeros(m, dtype=np.float64)
    predictions = np.empty((T, m), dtype=np.int64)
    alphas = np.empty(T, dtype=np.float64)
    correct_counts = np.zeros(m, dtype=np.int64)
    rounds = []
    hypotheses = []
    for t in range(1, T + 1):
        shifted = np.exp(log_w - log_w.max())
        dist = normalize(shifted)
        w = dist.weights
        indices = index_source(t, dist)
        sample = dataset.subset(indices)
        if learner.distribution_aware:
            h = learner.train_weighted(ctx, dist, sample, mu)
        else:
            h = learner.train(sample, mu)
        preds = h.predictions_for(dataset)
        correct = preds == labels
        alpha = float(w[correct].sum())
        audit = None
        if gamma is not None:
            coverage = float(w[covered].sum())
            audit = audit_from_arrays(alpha, coverage, mu, gamma, tag=f"{audit_tag}t{t}")
            if audit_log is not None:
                audit_log.append(audit)
        log_w = log_w - eta * correct
        predictions[t - 1] = preds
        alphas[t - 1] = alpha
        correct_counts += correct
        hypotheses.append(h)
        rounds.append(
            HedgeRound(
                t=t,
                alpha=alpha,
                entropy=dist.entropy(),
                indices=tuple(int(i) for i in indices),
                audit=audit,
                hypothesis_source=h.source,
            )
        )
    score = ScoreTable(hypotheses, dataset, predictions)
    return HedgeResult(
        score=score,
        rounds=rounds,
        eta=eta,
        final_log_weights=log_w,
        alphas=alphas,
        correct_counts=correct_counts,
    )


def run_hedge(dataset: Dataset, mu: ListFunction, spec: WeakLearnerSpec, T: int,
              eta: float, rng: RandomStream, gamma: Optional[float] = None,
              audit_log: Optional[BrgAuditLog] = None, audit_tag: str = "") -> HedgeResult:
    """Run T multiplicative-weights rounds, sampling each round's training set."""

    def index_source(t, dist):
        gen = rng.child("round", t).generator()
        return gen.choice(dataset.m, size=spec.m0, replace=True, p=dist.weights)

    return _run_rounds(dataset, mu, spec, T, eta, index_source, gamma, audit_log, audit_tag)


def replay_hedge(dataset: Dataset, mu: ListFunction, spec: WeakLearnerSpec,
                 recorded_indices, eta: float, gamma: Optional[float] = None,
                 audit_log: Optional[BrgAuditLog] = None, audit_tag: str = "") -> HedgeResult:
    """Re-run rounds on previously recorded per-round sample indices."""
    recorded = [np.asarray(ix, dtype=np.int64) for ix in recorded_indices]

    def index_source(t, dist):
        return recorded[t - 1]

    return _run_rounds(dataset, mu, spec, len(recorded), eta, index_source, gamma,
                       audit_log, audit_tag)


def eliminate_min_label(score: ScoreTable, instance, candidates) -> int:
    """The candidate label with the fewest votes at `instance` (ties: lowest id)."""
    candidates = list(candidates)
    if not candidates:
        raise EmptyCandidates(f"no candidate labels to eliminate at {instance!r}")
    return min(candidates, key=lambda c: (score.score(instance, c), c))
