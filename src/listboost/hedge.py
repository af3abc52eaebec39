"""Multiplicative-weights boosting rounds and score-based label elimination.

Weights start uniform and are kept in log space, so no underflow rescaling is
ever needed. Each round: normalize to a distribution, draw the learner's
sample i.i.d. from it (``dataset.subset`` at the drawn indices: integer
arrays on the dataset's key table, no per-example objects), train, then
multiply every correctly-classified example's weight by exp(-eta). The
per-round accuracy alpha_t is always measured on the full weighted dataset,
not the drawn sample; a hypothesis is evaluated once per distinct training
instance. A run is its slots, one per distinct hypothesis object in
first-draw order (its sample, its prediction row and its correct mask), and
the slot id each round drew (``draws``); nothing else is kept per round but
alpha and the audit. The score table keeps, per instance, one row of vote
counts indexed by label, where each slot's vote counts once per round that
drew it, so row sums equal the round count exactly. The wrong-label game of
``oig`` counts its bag's guesses in the same table, one draw per pick.
``compression.hedge_group`` writes the slots and draws as the run's record
group.

A round's log-weights are ``levels[counts]``: ``counts`` is how many earlier
rounds classified each example correctly, and ``levels[n]`` is n repeated
subtractions of eta. So the round loop runs only the draws and the training,
in order: training normalizes every round's weights to draw from them, while
replay trains only the first draw of each slot, and builds that round's
weights only for a distribution-aware learner. A block pass then builds the
other rounds' weights from their counts (``core.normalize_rows``) and
computes every round's alpha, coverage and audit, a bounded block of rounds
at a time, with the same bits as a round-by-round loop.

The same loop runs the residual-peeling hint (``hint.py``) at eta = infinity:
a correctly classified example's weight drops to zero and stays there, and
the loop stops early once no weight is left. The public entry points accept
only a positive finite eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Dataset, ListFunction, RandomStream, coverage_mask, normalize, normalize_rows
from .errors import EmptyCandidates, InvalidParams, NonDeterministicLearner
from .weak_learn import BrgAuditLog, TrainContext, WeakLearnerSpec, audit_from_arrays


# The most weight cells a block pass of ``_run_rounds`` holds in one array (128 KiB
# of float64); a longer run is passed in several blocks, so memory does not grow with T.
_BLOCK_CELLS = 1 << 14


class ScoreTable:
    """Vote counts H(x, y) of a run's slots, each slot's vote counted once per draw.

    ``slots`` are the distinct hypotheses (or the game's guessers), ``draws``
    each round's slot id, and ``rows[s]`` slot s's prediction per training
    index. One memo maps each instance to an int64 row indexed by label, at
    least as long as the alphabet. Every training instance's row is counted
    up front from the slot rows, weighted by each slot's multiplicity; any
    other instance's row is counted the first time it is asked for, calling
    ``predict`` once per drawn slot.
    """

    def __init__(self, slots, draws, dataset: Dataset, rows: np.ndarray):
        self.slots = tuple(slots)
        self.draws = draws
        self.rows = rows  # shape (slots, m)
        self.multiplicity = np.bincount(draws, minlength=len(self.slots))  # draws per slot
        self._drawn = np.flatnonzero(self.multiplicity).tolist()
        n_inst = len(dataset.unique_instances)
        self._width = max(len(dataset.alphabet), int(rows.max(initial=-1)) + 1)
        cells = rows[:, dataset.first_index]  # a copy, then (instance, label) cell ids
        cells += self._width * np.arange(n_inst, dtype=np.int64)
        counts = np.zeros(n_inst * self._width, dtype=np.int64)
        np.add.at(counts, cells, self.multiplicity[:, np.newaxis])
        self._rows = dict(zip(dataset.unique_instances, counts.reshape(n_inst, self._width)))

    # each round's prediction row, built when read (the benchmark's hedge-floor check reads it)
    predictions = property(lambda self: self.rows[self.draws])

    @property
    def total(self) -> int:
        return len(self.draws)

    def counts(self, x) -> np.ndarray:
        """Vote count per label at instance x; the row sums to ``total``."""
        row = self._rows.get(x)
        if row is None:
            votes = np.array([self.slots[s].predict(x) for s in self._drawn], dtype=np.int64)
            row = np.bincount(votes.repeat(self.multiplicity[self._drawn]),
                              minlength=self._width)
            self._rows[x] = row
        return row

    def score(self, x, y) -> int:
        return int(self.counts(x)[y])


@dataclass
class HedgeResult:
    score: ScoreTable
    eta: float
    final_log_weights: np.ndarray
    alphas: np.ndarray
    correct_counts: np.ndarray  # H(x_i, y_i) per training index
    samples: list  # per slot: the indices it was trained on
    draws: list  # the slot id of each round; slot ids count up in first-draw order
    audits: list  # per round, when audited

    # per round, its slot id and its slot's sample (the benchmark reads both)
    rounds = property(lambda self: self.draws)
    round_indices = property(lambda self: [self.samples[s] for s in self.draws])

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


def _scaled_weights(levels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """exp(log-weight - top) per row of ``counts``: the log-weight of an example
    correct in n earlier rounds is ``levels[n]``, top its row's largest."""
    log_w = levels[counts]
    return np.exp(log_w - log_w.max(axis=-1, keepdims=True))


def _run_rounds(dataset: Dataset, mu: ListFunction, spec: WeakLearnerSpec, T: int,
                eta: float, index_source: Callable, gamma: Optional[float],
                audit_log: Optional[BrgAuditLog], audit_tag: str) -> HedgeResult:
    """Up to T rounds; audit tags are ``audit_tag`` followed by the round number.

    With a replay source's ``draws``, round t trains slot ``draws[t-1]`` only at
    its first draw. Rounds wait for their block pass until ``_BLOCK_CELLS``
    weight cells are pending, the run ends or a round raises. With eta = inf a
    correct example's log-weight becomes -inf, and the loop stops before a
    round that would find no weight left.
    """
    if T < 1:
        raise InvalidParams("round count T must be at least 1")
    m = dataset.m
    learner = spec.learner
    aware = learner.distribution_aware
    ctx = TrainContext(dataset, mu) if aware else None
    covered = ctx.covered if ctx is not None else coverage_mask(dataset, mu)
    replayed = getattr(index_source, "draws", None)
    # levels[n] is the log-weight of an example correct in n rounds: n subtractions of
    # eta, in order; a huge eta reaches -inf, as repeated `-= eta` would
    with np.errstate(over="ignore"):
        levels = np.subtract.accumulate(np.r_[0.0, np.full(T, eta)])
    dies = levels[-1] == -np.inf  # else some weight is always left
    counts = np.zeros(m, dtype=np.int64)  # per example: earlier rounds that had it correct
    block = min(T, max(1, _BLOCK_CELLS // m))
    tally = np.empty((block, m), dtype=np.int64)  # per pending round: its counts
    weights = np.empty((block, m), dtype=np.float64)  # per pending round: its weights
    pending = []  # per pending round: were its weights built in the loop
    alphas = np.empty(T, dtype=np.float64)
    audits = []
    draws = []
    slot_of = {}  # a trained hypothesis, or a replayed slot id -> its slot
    slots = []  # per slot: (hypothesis, sample, correct mask)
    slot_rows = []  # per slot: its prediction row

    def block_pass():
        first, n = len(draws) - len(pending), len(pending)
        if not n:
            return
        built = pending[:]
        pending.clear()
        w = weights[:n]
        todo = [i for i, b in enumerate(built) if not b]
        if todo:
            w[todo] = normalize_rows(_scaled_weights(levels, tally[todo]))
        at = {}  # slot id -> the block's rounds that drew it
        for i, s in enumerate(draws[first:]):
            at.setdefault(s, []).append(i)
        sums = alphas[first:first + n]
        for s, rows in at.items():
            mask = slots[s][2]
            if len(rows) == 1:
                sums[rows[0]] = w[rows[0]][mask].sum()
            else:  # compress gathers in C order, so each row sum is the pairwise w[mask].sum()
                sums[rows] = w[rows].compress(mask, axis=1).sum(axis=1)
        if gamma is not None:
            coverage = w.compress(covered, axis=1).sum(axis=1).tolist()
            for t, alpha, cover in zip(range(first + 1, first + n + 1), sums.tolist(), coverage):
                audits.append(audit_from_arrays(alpha, cover, mu, gamma, tag=f"{audit_tag}{t}"))
                if audit_log is not None:
                    audit_log.append(audits[-1])

    try:
        for t in range(1, T + 1):
            if dies and levels[counts.min()] == -np.inf:
                break
            dist = normalize(_scaled_weights(levels, counts)) if replayed is None else None
            indices = index_source(t, dist)
            key = replayed[t - 1] if replayed is not None else None
            if key not in slot_of:
                sample = dataset.subset(indices)
                if aware:
                    if dist is None:
                        dist = normalize(_scaled_weights(levels, counts))
                    h = learner.train_weighted(ctx, dist, sample, mu)
                else:
                    h = learner.train(sample, mu)
                key = h if key is None else key
                if key not in slot_of:
                    slot_of[key] = len(slots)
                    slot_rows.append(h.predictions_for(dataset))
                    slots.append((h, tuple(indices.tolist()), slot_rows[-1] == dataset.labels))
            draws.append(slot_of[key])
            if dist is None:
                tally[len(pending)] = counts
            else:
                weights[len(pending)] = dist.weights
            pending.append(dist is not None)
            counts += slots[draws[-1]][2]
            if len(pending) == block:
                block_pass()
    finally:
        block_pass()  # a round that raised leaves the rounds before it passed and audited
    hypotheses, samples, _ = zip(*slots)
    return HedgeResult(
        score=ScoreTable(hypotheses, draws, dataset, np.stack(slot_rows)),
        eta=eta,
        final_log_weights=levels[counts],
        alphas=alphas[:len(draws)],
        correct_counts=counts,
        samples=list(samples),
        draws=draws,
        audits=audits,
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
