"""Multiplicative-weights boosting rounds and score-based label elimination.

Weights start uniform and are kept in log space, so no underflow rescaling is
ever needed. Each round: normalize to a distribution, draw the learner's
sample i.i.d. from it (``dataset.subset`` at the drawn indices: integer
arrays on the dataset's key table, no per-example objects), train, then
multiply every correctly-classified example's weight by exp(-eta). The
per-round accuracy alpha_t is always measured on the full weighted dataset,
not the drawn sample; a hypothesis is evaluated once per distinct training
instance. The score table keeps, per instance, one row of vote counts
indexed by label: how many rounds voted that label there. Row sums equal the
round count exactly because every hypothesis casts one vote. Elsewhere each
distinct hypothesis object is asked once and its vote counted once per round
that returned it. The wrong-label game of ``oig`` counts its bag's guesses
in the same table, one round per draw. A run keeps one slot per distinct
hypothesis object, in first-draw order, and each round's slot id (``draws``);
``compression.hedge_group`` writes them as the run's record group.

The same loop runs the residual-peeling hint (``hint.py``) at eta = infinity:
a correctly classified example's weight drops to zero and stays there, and
the loop stops early once no weight is left. The public entry points accept
only a positive finite eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Dataset, ListFunction, RandomStream, coverage_mask, normalize
from .errors import EmptyCandidates, InvalidParams, NonDeterministicLearner
from .weak_learn import (
    BrgAudit,
    BrgAuditLog,
    TrainContext,
    WeakLearnerSpec,
    audit_from_arrays,
)


class ScoreTable:
    """Vote counts H(x, y) accumulated over the trained hypotheses or the game's guessers.

    One memo maps each instance to an int64 row indexed by label, at least
    as long as the alphabet. Every training instance's row is counted up
    front from the prediction matrix; any other instance's row is counted
    the first time it is asked for, calling ``predict`` once per distinct
    hypothesis object and repeating its vote by that object's multiplicity.
    """

    def __init__(self, hypotheses, dataset: Dataset, predictions: np.ndarray):
        self.hypotheses = list(hypotheses)
        self.predictions = predictions  # shape (rounds run, m)
        slot = {h: i for i, h in enumerate(dict.fromkeys(self.hypotheses))}
        self.distinct = tuple(slot)  # in first-seen order
        self._multiplicity = np.bincount([slot[h] for h in self.hypotheses])
        n_inst = len(dataset.unique_instances)
        self._width = max(len(dataset.alphabet), int(predictions.max(initial=-1)) + 1)
        cells = predictions[:, dataset.first_index]  # a copy, then (instance, label) cell ids
        cells += self._width * np.arange(n_inst, dtype=np.int64)
        rows = np.bincount(cells.ravel(), minlength=n_inst * self._width)
        self._rows = dict(zip(dataset.unique_instances,
                              rows.reshape(n_inst, self._width)))

    @property
    def total(self) -> int:
        return len(self.hypotheses)

    def counts(self, x) -> np.ndarray:
        """Vote count per label at instance x; the row sums to ``total``."""
        row = self._rows.get(x)
        if row is None:
            votes = np.array([h.predict(x) for h in self.distinct], dtype=np.int64)
            row = np.bincount(np.repeat(votes, self._multiplicity), minlength=self._width)
            self._rows[x] = row
        return row

    def score(self, x, y) -> int:
        return int(self.counts(x)[y])


@dataclass
class HedgeRound:
    t: int
    alpha: float
    indices: tuple
    audit: Optional[BrgAudit]


@dataclass
class HedgeResult:
    score: ScoreTable
    rounds: list
    eta: float
    final_log_weights: np.ndarray
    alphas: np.ndarray
    correct_counts: np.ndarray  # H(x_i, y_i) per training index
    draws: list  # the slot id of each round; slot ids count up in first-draw order

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


def _drawn_indices(rng: RandomStream, tag: str, m0: int) -> Callable:
    """Each round draws m0 indices i.i.d. from its distribution by inverse CDF.

    One generator, fresh from ``rng.child(tag)``, serves every round of the run,
    so two runs on the same stream draw the same samples. The draw is the one
    ``Generator.choice(m, size=m0, p=weights)`` makes from the same state,
    without its checks on p, which ``ExampleDistribution`` already made more
    strictly; a zero-weight example is never drawn.
    """
    gen = rng.child(tag).generator()

    def draw(t, dist):
        cdf = np.cumsum(dist.weights)
        cdf /= cdf[-1]
        return cdf.searchsorted(gen.random(m0), side="right")

    return draw


def _recorded_indices(recorded_indices, m0: int, where: str, draws=None) -> Callable:
    """Round t replays the sample of slot ``draws[t-1]`` (None: the t-th sample), kept on
    the source as ``draws``; a round past the last raises. Before any round,
    InvalidParams names the group ``where`` unless it draws every slot in first-draw
    order, or else the first round whose sample is not m0 long."""
    recorded = [np.asarray(ix, dtype=np.int64) for ix in recorded_indices]
    draws = range(len(recorded)) if draws is None else draws
    if list(dict.fromkeys(draws)) != list(range(len(recorded))):
        raise InvalidParams(f"{where} does not draw each slot, in first-draw order".lstrip())
    for t, ix in enumerate(map(recorded.__getitem__, draws), 1):
        if ix.size != m0:
            raise InvalidParams(f"{where} round {t} has {ix.size} indices, not m0={m0}".lstrip())

    def replay(t, dist):
        if t > len(draws):
            raise NonDeterministicLearner(
                f"replay needs round {t} but only {len(draws)} were recorded"
            )
        return recorded[draws[t - 1]]

    replay.draws = draws
    return replay


def _check_eta(eta: float):
    if not (eta > 0.0) or not np.isfinite(eta):
        raise InvalidParams(f"eta must be a positive finite float, got {eta!r}")


def _run_rounds(dataset: Dataset, mu: ListFunction, spec: WeakLearnerSpec, T: int,
                eta: float, index_source: Callable, gamma: Optional[float],
                audit_log: Optional[BrgAuditLog], audit_tag: str) -> HedgeResult:
    """Up to T rounds; audit tags are ``audit_tag`` followed by the round number.

    With a replay source's ``draws``, round t trains slot ``draws[t-1]`` only at
    its first draw. With eta = inf a correct example's log-weight becomes -inf,
    and the loop stops before a round that would find no weight left.
    """
    if T < 1:
        raise InvalidParams("round count T must be at least 1")
    m = dataset.m
    labels = dataset.labels
    learner = spec.learner
    ctx = TrainContext(dataset, mu) if learner.distribution_aware else None
    covered = ctx.covered if ctx is not None else coverage_mask(dataset, mu)
    replayed = getattr(index_source, "draws", None)
    log_w = np.zeros(m, dtype=np.float64)
    predictions = np.empty((T, m), dtype=np.int64)
    alphas = np.empty(T, dtype=np.float64)
    rounds = []
    hypotheses = []
    draws = []
    slot_of = {}  # a trained hypothesis, or a replayed slot id -> its slot
    slots = []  # per slot: (hypothesis, the round that first drew it, correct mask)
    for t in range(1, T + 1):
        top = log_w.max()
        if top == -np.inf:
            break
        dist = normalize(np.exp(log_w - top))
        w = dist.weights
        indices = index_source(t, dist)
        key = replayed[t - 1] if replayed is not None else None
        if key not in slot_of:
            sample = dataset.subset(indices)
            if learner.distribution_aware:
                h = learner.train_weighted(ctx, dist, sample, mu)
            else:
                h = learner.train(sample, mu)
            key = h if key is None else key
            if key not in slot_of:
                slot_of[key] = len(slots)
                predictions[t - 1] = h.predictions_for(dataset)
                slots.append((h, t - 1, predictions[t - 1] == labels))
        draws.append(slot_of[key])
        h, first, correct = slots[draws[-1]]
        predictions[t - 1] = predictions[first]
        alpha = float(w[correct].sum())
        audit = None
        if gamma is not None:
            coverage = float(w[covered].sum())
            audit = audit_from_arrays(alpha, coverage, mu, gamma, tag=f"{audit_tag}{t}")
            if audit_log is not None:
                audit_log.append(audit)
        log_w[correct] -= eta
        alphas[t - 1] = alpha
        hypotheses.append(h)
        rounds.append(HedgeRound(t=t, alpha=alpha, indices=tuple(indices.tolist()),
                                 audit=audit))
    predictions = predictions[:len(rounds)]
    return HedgeResult(
        score=ScoreTable(hypotheses, dataset, predictions),
        rounds=rounds,
        eta=eta,
        final_log_weights=log_w,
        alphas=alphas[:len(rounds)],
        correct_counts=(predictions == labels).sum(axis=0),
        draws=draws,
    )


def run_hedge(dataset: Dataset, mu: ListFunction, spec: WeakLearnerSpec, T: int,
              eta: float, rng: RandomStream, gamma: Optional[float] = None,
              audit_log: Optional[BrgAuditLog] = None, audit_tag: str = "") -> HedgeResult:
    """Run T multiplicative-weights rounds, sampling each round's training set."""
    _check_eta(eta)
    draw = _drawn_indices(rng, "round", spec.m0)
    return _run_rounds(dataset, mu, spec, T, eta, draw, gamma, audit_log, f"{audit_tag}t")


def replay_hedge(dataset: Dataset, mu: ListFunction, spec: WeakLearnerSpec,
                 recorded_indices, eta: float, gamma: Optional[float] = None,
                 audit_log: Optional[BrgAuditLog] = None, audit_tag: str = "",
                 where: str = "", draws=None) -> HedgeResult:
    """Re-run rounds on previously recorded samples: one per round, or per slot with ``draws``.

    ``where`` names the record group the samples came from in a length error.
    """
    _check_eta(eta)
    replay = _recorded_indices(recorded_indices, spec.m0, where, draws)
    return _run_rounds(dataset, mu, spec, len(replay.draws), eta, replay,
                       gamma, audit_log, f"{audit_tag}t")


def eliminate_min_label(score: ScoreTable, instance, candidates) -> int:
    """The candidate label with the fewest votes at `instance` (ties: lowest id)."""
    candidates = list(candidates)
    if not candidates:
        raise EmptyCandidates(f"no candidate labels to eliminate at {instance!r}")
    return min(candidates, key=lambda c: (score.score(instance, c), c))
