"""Initial hint construction by residual peeling.

Round j trains a weak hypothesis on a sample drawn uniformly from the
examples no round has classified correctly yet, using the universal hint, and
removes its correct hits from the residual. If every round clears plain
accuracy gamma on its residual, ceil(ln(m)/gamma) rounds leave the residual
empty, because the residual shrinks by a (1 - gamma) factor each time. The
hint list of an instance is the ordered deduplicated sequence of the round
hypotheses' predictions on it, so every peeled example's true label appears
in its own list.

Peeling is Hedge's round loop (``hedge._run_rounds``) at eta = infinity: a
correct example's weight drops to zero and stays there, so each round's
distribution is uniform on the residual, and the loop stops early once the
residual is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# bench/spans.py wraps normalize, stable_digest and audit_from_arrays in this
# module, which does not call them.
from .core import Dataset, ListFunction, RandomStream, normalize, ordered_dedup, stable_digest
from .compression import RecordGroup, hedge_group
from .errors import InvalidGamma
from .hedge import _drawn_indices, _recorded_indices, _run_rounds
from .weak_learn import BrgAuditLog, WeakLearnerSpec, audit_from_arrays


def default_hint_rounds(m: int, gamma: float) -> int:
    """Round budget ceil(ln(m)/gamma) that guarantees an empty residual."""
    if not (0.0 < gamma < 1.0):
        raise InvalidGamma(f"gamma must be in (0, 1), got {gamma!r}")
    return max(1, math.ceil(math.log(max(m, 2)) / gamma))


@dataclass
class HintResult:
    mu: ListFunction
    slots: tuple  # the distinct hypotheses, in first-draw order
    record_group: RecordGroup
    residual_sizes: list
    rounds_run: int
    covered_all: bool
    uncovered: tuple
    audits: list


def _hint_core(dataset: Dataset, spec: WeakLearnerSpec, p: int, index_source,
               gamma: Optional[float], audit_log: Optional[BrgAuditLog],
               recorded: Optional[RecordGroup] = None) -> HintResult:
    universal = ListFunction.universal(dataset.alphabet)
    result = _run_rounds(dataset, universal, spec, p, math.inf, index_source, gamma,
                         audit_log, "hint:j")
    group = hedge_group("hint", result, recorded)
    score = result.score
    # residual size after each round: slot ids count up in first-draw order, so a
    # round's residual is the one left after the highest slot drawn so far
    peeled = np.logical_or.accumulate(score.rows == dataset.labels, axis=0)
    left = (dataset.m - peeled.sum(axis=1))[np.maximum.accumulate(result.draws)]
    uncovered = tuple(np.flatnonzero(np.isfinite(result.final_log_weights)).tolist())
    # a column deduplicated in order is the same over the slots as over the rounds
    columns = score.rows[:, dataset.first_index].T.tolist()
    entries = dict(zip(dataset.unique_instances, map(ordered_dedup, columns)))

    def extend(x):
        return ordered_dedup(h.predict(x) for h in score.slots)

    mu1 = ListFunction.composed(extend, declared_size=p, entries=entries,
                                name=f"hint[p={p}]")
    return HintResult(
        mu=mu1,
        slots=score.slots,
        record_group=group,
        residual_sizes=[dataset.m] + left[:-1].tolist(),
        rounds_run=len(result.alphas),
        covered_all=(len(uncovered) == 0),
        uncovered=uncovered,
        audits=result.audits,
    )


def build_initial_hint(dataset: Dataset, spec: WeakLearnerSpec, p: int,
                       rng: RandomStream, gamma: Optional[float] = None,
                       audit_log: Optional[BrgAuditLog] = None) -> HintResult:
    """Run up to p residual-peeling rounds and assemble the hint list function."""
    draw = _drawn_indices(rng, "hint-round", spec.m0)
    return _hint_core(dataset, spec, p, draw, gamma, audit_log)


def replay_initial_hint(dataset: Dataset, spec: WeakLearnerSpec, p: int,
                        recorded_slots, gamma: Optional[float] = None, draws=None) -> HintResult:
    """Rebuild a hint from its recorded slots and draws, verifying fingerprints."""
    recorded = RecordGroup("hint", list(recorded_slots), draws)
    replay = _recorded_indices([s.indices for s in recorded.slots], spec.m0, "hint", draws)
    return _hint_core(dataset, spec, p, replay, gamma, None, recorded)
