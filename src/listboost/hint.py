"""Initial hint construction by residual peeling.

Round j trains a weak hypothesis on a sample drawn uniformly from the
examples no round has classified correctly yet, using the universal hint, and
removes its correct hits from the residual. If every round clears plain
accuracy gamma on its residual, ceil(ln(m)/gamma) rounds leave the residual
empty, because the residual shrinks by a (1 - gamma) factor each time. The
hint list of an instance is the ordered deduplicated sequence of the round
hypotheses' predictions on it, so every peeled example's true label appears
in its own list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Dataset,
    ListFunction,
    RandomStream,
    normalize,
    ordered_dedup,
    stable_digest,
)
from .compression import HypothesisSlot, RecordGroup, check_fingerprints
from .errors import InvalidGamma, InvalidParams, NonDeterministicLearner
from .weak_learn import BrgAuditLog, TrainContext, WeakLearnerSpec, audit_from_arrays


def default_hint_rounds(m: int, gamma: float) -> int:
    """Round budget ceil(ln(m)/gamma) that guarantees an empty residual."""
    if not (0.0 < gamma < 1.0):
        raise InvalidGamma(f"gamma must be in (0, 1), got {gamma!r}")
    return max(1, math.ceil(math.log(max(m, 2)) / gamma))


@dataclass
class HintResult:
    mu: ListFunction
    hypotheses: list
    slots: list
    residual_sizes: list
    rounds_run: int
    covered_all: bool
    uncovered: tuple
    audits: list

    @property
    def record_group(self) -> RecordGroup:
        return RecordGroup(tag="hint", slots=self.slots)


def _hint_core(dataset: Dataset, spec: WeakLearnerSpec, p: int, index_source,
               gamma: Optional[float], audit_log: Optional[BrgAuditLog]):
    if p < 1:
        raise InvalidParams("hint round budget p must be at least 1")
    m = dataset.m
    labels = dataset.labels
    mu0 = ListFunction.universal(dataset.alphabet)
    learner = spec.learner
    ctx = TrainContext(dataset, mu0) if learner.distribution_aware else None
    residual = np.ones(m, dtype=bool)
    hypotheses = []
    slots = []
    residual_sizes = []
    audits = []
    for j in range(1, p + 1):
        size = int(residual.sum())
        if size == 0:
            break
        residual_sizes.append(size)
        dist = normalize(residual.astype(np.float64))
        indices = index_source(j, dist)
        sample = dataset.subset(indices)
        if learner.distribution_aware:
            h = learner.train_weighted(ctx, dist, sample, mu0)
        else:
            h = learner.train(sample, mu0)
        preds = h.predictions_for(dataset)
        correct = preds == labels
        if gamma is not None:
            alpha = float(dist.weights[correct].sum())
            audit = audit_from_arrays(alpha, 1.0, mu0, gamma, tag=f"hint:j{j}")
            audits.append(audit)
            if audit_log is not None:
                audit_log.append(audit)
        hypotheses.append(h)
        slots.append(HypothesisSlot(slot=j - 1, indices=tuple(int(i) for i in indices),
                                    pred_hash=stable_digest(tuple(preds.tolist()))))
        residual = residual & ~correct
    rounds_run = len(hypotheses)
    uncovered = tuple(int(i) for i in np.nonzero(residual)[0])

    entries = {}
    for x in dataset.unique_instances:
        entries[x] = ordered_dedup(h.predict(x) for h in hypotheses)

    def extend(x):
        return ordered_dedup(h.predict(x) for h in hypotheses)

    mu1 = ListFunction.composed(extend, declared_size=p, entries=entries,
                                name=f"hint[p={p}]")
    return HintResult(
        mu=mu1,
        hypotheses=hypotheses,
        slots=slots,
        residual_sizes=residual_sizes,
        rounds_run=rounds_run,
        covered_all=(len(uncovered) == 0),
        uncovered=uncovered,
        audits=audits,
    )


def build_initial_hint(dataset: Dataset, spec: WeakLearnerSpec, p: int,
                       rng: RandomStream, gamma: Optional[float] = None,
                       audit_log: Optional[BrgAuditLog] = None) -> HintResult:
    """Run up to p residual-peeling rounds and assemble the hint list function."""

    def index_source(j, dist):
        gen = rng.child("hint-round", j).generator()
        return gen.choice(dataset.m, size=spec.m0, replace=True, p=dist.weights)

    return _hint_core(dataset, spec, p, index_source, gamma, audit_log)


def replay_initial_hint(dataset: Dataset, spec: WeakLearnerSpec, p: int,
                        recorded_slots, gamma: Optional[float] = None) -> HintResult:
    """Rebuild a hint from recorded per-round sample indices, verifying fingerprints."""
    recorded = [np.asarray(s.indices, dtype=np.int64) for s in recorded_slots]

    def index_source(j, dist):
        if j - 1 >= len(recorded):
            raise NonDeterministicLearner(
                f"hint replay needs round {j} but only {len(recorded)} were recorded"
            )
        return recorded[j - 1]

    result = _hint_core(dataset, spec, p, index_source, gamma, None)
    check_fingerprints(recorded_slots, [s.pred_hash for s in result.slots], "hint")
    return result
