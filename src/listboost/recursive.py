"""Recursive list shrinking: hint, then score-thresholded elimination phases.

Phase j runs the multiplicative-weights rounds against the current hint
mu_j, then keeps only the labels whose vote count clears T/d_j (strict,
exact integers), so at most d_j - 1 labels survive. d_j is the smallest
value in [min(s, p - j + 1), p - j + 1], s the longest training list, that
keeps every training label; p - j + 1 does when every audit passes, so after
p - 1 phases each training list is its true label alone. A pair losing its
true label raises PhaseFailure; the adaptive driver then halves the edge.
The meta stores each d_j (``denominators``): side information of at most
ln p nats per phase, not counted in r. Replay derives every d_j by the same
rule, and the whole-record comparison rejects a record that stores another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# bench/spans.py wraps stable_digest in this module, which does not call it.
from .core import Dataset, ListFunction, RandomStream, coverage_mask, stable_digest
from .compression import (CompressionRecord, check_rebuilt, check_record_ids, compression_size,
                          hedge_group, read_meta)
from .errors import GammaExhausted, InvalidGamma, InvalidParams, PhaseFailure
from .hedge import ScoreTable, replay_hedge, run_hedge
from .hint import build_initial_hint, default_hint_rounds, replay_initial_hint
from .weak_learn import BrgAuditLog, WeakLearnerSpec


def default_round_count(m: int, gamma: float) -> int:
    """T = ceil(8 ln(m) / gamma^2)."""
    if not (0.0 < gamma < 1.0):
        raise InvalidGamma(f"gamma must be in (0, 1), got {gamma!r}")
    return max(1, math.ceil(8.0 * math.log(max(m, 2)) / gamma**2))


def default_phase_budget(m: int, gamma: float) -> int:
    """p = ceil(ln(m) / gamma); also the hint round budget."""
    return default_hint_rounds(m, gamma)


def default_learning_rate(m: int, T: int) -> float:
    """eta = sqrt(ln(m) / (2 T))."""
    if T < 1:
        raise InvalidParams("T must be at least 1")
    return math.sqrt(math.log(max(m, 2)) / (2.0 * T))


@dataclass(frozen=True)
class BoostConfig:
    gamma: float
    T: int
    p: int
    eta: float
    m0: Optional[int] = None  # None: use the learner spec's m0
    delta: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise InvalidGamma(f"gamma must be in (0, 1), got {self.gamma!r}")
        if self.T < 1 or self.p < 1:
            raise InvalidParams("T and p must be at least 1")
        if not (self.eta > 0.0):
            raise InvalidParams("eta must be positive")
        if not (0.0 < self.delta <= 1.0):
            raise InvalidParams("delta must be in (0, 1]")

    @classmethod
    def from_defaults(cls, m: int, gamma: float, m0: Optional[int] = None,
                      seed: int = 0, delta: float = 0.05, T: Optional[int] = None,
                      p: Optional[int] = None, eta: Optional[float] = None) -> "BoostConfig":
        T = T if T is not None else default_round_count(m, gamma)
        p = p if p is not None else default_phase_budget(m, gamma)
        eta = eta if eta is not None else default_learning_rate(m, T)
        return cls(gamma=gamma, T=T, p=p, eta=eta, m0=m0, seed=seed, delta=delta)


class StagedListChain:
    """The realized hint lists mu_1..mu_P and the score tables between them."""

    def __init__(self, lists, scores, alphabet):
        self.lists = list(lists)
        self.scores = list(scores)
        self.alphabet = tuple(alphabet)
        if len(self.lists) != len(self.scores) + 1:
            raise InvalidParams("chain needs exactly one more list than score tables")

    @property
    def realized_phases(self) -> int:
        return len(self.scores)

    def predict(self, x) -> int:
        """Singleton final list wins; otherwise fall back to the last score table."""
        final = self.lists[-1](x)
        if len(final) == 1:
            return int(final[0])
        if not self.scores:
            return int(final[0]) if final else int(self.alphabet[0])
        prev = self.lists[-2](x)
        candidates = prev if prev else self.alphabet
        table = self.scores[-1]
        return int(min(candidates, key=lambda y: (-table.score(x, y), y)))


@dataclass
class BoostResult:
    chain: StagedListChain
    record: CompressionRecord
    hint_result: object
    audit_log: BrgAuditLog
    oracle_calls: int
    consistent_on_train: bool

    def predict(self, x) -> int:
        return self.chain.predict(x)

    @property
    def compression_size(self) -> int:
        return compression_size(self.record)


def _kept(lst, counts, T: int, denom: int) -> tuple:
    """The labels of lst whose vote count clears T/denom (strict, exact integers)."""
    return tuple(y for y in lst if counts[y] * denom > T)


def _phase_denominator(lists, true_counts, T: int, cap: int) -> int:
    """Smallest d in [min(longest list, cap), cap] with true_counts * d > T, else cap."""
    c = int(min(true_counts))
    need = T // c + 1 if c else cap
    return min(cap, max(need, max(map(len, lists))))


def _make_stage_list(prev_mu: ListFunction, score: ScoreTable, T: int, denom: int,
                     instances, declared: int, name: str) -> ListFunction:
    def extend(x):
        return _kept(prev_mu(x), score.counts(x), T, denom)

    return ListFunction.tabled(extend, instances, declared, name)


def _boost_core(dataset: Dataset, spec: WeakLearnerSpec, config: BoostConfig,
                hint_result, phase_runner, audit_log: BrgAuditLog) -> BoostResult:
    m = dataset.m
    if not hint_result.covered_all:
        raise PhaseFailure(0, lost=len(hint_result.uncovered),
                           message=f"hint left {len(hint_result.uncovered)} example(s) uncovered")
    mu = hint_result.mu
    cur_lists = {x: mu(x) for x in dataset.unique_instances}
    lists = [mu]
    scores = []
    phase_groups = []
    denominators = []
    oracle_calls = hint_result.rounds_run
    p, T = config.p, config.T
    for j in range(1, p):
        if all(len(lst) <= 1 for lst in cur_lists.values()):
            break
        result, recorded = phase_runner(j, lists[-1])  # replay's group to check; None in training
        group = hedge_group(f"phase-{j}", result, recorded)
        if len(result.rounds) != T:
            raise InvalidParams(f"record group {group.tag} has {len(result.rounds)} rounds, "
                                f"not T={T}")
        oracle_calls += T
        denom = _phase_denominator(cur_lists.values(), result.correct_counts, T, p - j + 1)
        nxt = _make_stage_list(lists[-1], result.score, T, denom, dataset.unique_instances,
                               p - j, name=f"stage[{j + 1}]")
        # every training label is in its current list, so a miss is a lost label
        lost = m - int(coverage_mask(dataset, nxt).sum())
        if lost:
            raise PhaseFailure(j, lost=lost)
        phase_groups.append(group)
        scores.append(result.score)
        denominators.append(denom)
        lists.append(nxt)
        cur_lists = nxt.entries
    chain = StagedListChain(lists, scores, dataset.alphabet)
    consistent = bool(coverage_mask(dataset, lambda x: (chain.predict(x),)).all())
    meta = {
        "gamma": config.gamma,
        "T": config.T,
        "p": config.p,
        "eta": config.eta,
        "m0": config.m0 if config.m0 is not None else spec.m0,
        "delta": config.delta,
        "seed": config.seed,
        "m": m,
        "alphabet_size": len(dataset.alphabet),
        "hint_rounds": hint_result.rounds_run,
        "phases_run": len(scores),
        "denominators": denominators,
        "learner": spec.learner.name,
        "compression_safe": bool(spec.learner.compression_safe),
    }
    record = CompressionRecord(pipeline="boost", meta=meta,
                               groups=[hint_result.record_group] + phase_groups)
    return BoostResult(
        chain=chain,
        record=record,
        hint_result=hint_result,
        audit_log=audit_log,
        oracle_calls=oracle_calls,
        consistent_on_train=consistent,
    )


def recursive_boost(dataset: Dataset, spec: WeakLearnerSpec, config: BoostConfig,
                    audit_log: Optional[BrgAuditLog] = None) -> BoostResult:
    """Hint, then p - 1 shrinking phases; raises PhaseFailure on label loss."""
    audit_log = audit_log if audit_log is not None else BrgAuditLog()
    effective = spec if config.m0 is None else WeakLearnerSpec(spec.learner, config.m0)
    rs = RandomStream(config.seed, ("boost",))
    hint_result = build_initial_hint(dataset, effective, config.p, rs.child("hint"),
                                     gamma=config.gamma, audit_log=audit_log)

    def phase_runner(j, mu_j):
        result = run_hedge(dataset, mu_j, effective, config.T, config.eta,
                           rs.child("phase", j), gamma=config.gamma,
                           audit_log=audit_log, audit_tag=f"phase{j}:")
        return result, None

    return _boost_core(dataset, effective, config, hint_result, phase_runner, audit_log)


def replay_boost(record: CompressionRecord, dataset: Dataset,
                 spec: WeakLearnerSpec) -> BoostResult:
    """Rebuild a boosted predictor from its record, under ``compression``'s replay contract."""
    config = BoostConfig(**read_meta(record, ("gamma", "T", "p", "eta", "m0", "delta", "seed")))
    check_record_ids(record, dataset.m)
    effective = WeakLearnerSpec(spec.learner, int(config.m0))
    audit_log = BrgAuditLog()
    hint_result = replay_initial_hint(dataset, effective, config.p, record.group("hint").slots,
                                      gamma=config.gamma, draws=record.group("hint").draws)

    def phase_runner(j, mu_j):
        group = record.group(f"phase-{j}")
        result = replay_hedge(dataset, mu_j, effective,
                              [s.indices for s in group.slots], config.eta,
                              gamma=config.gamma, audit_log=audit_log,
                              audit_tag=f"phase{j}:", where=group.tag, draws=group.draws)
        return result, group

    res = _boost_core(dataset, effective, config, hint_result, phase_runner, audit_log)
    check_rebuilt(record, res.record)
    return res


@dataclass
class AdaptiveAttempt:
    gamma: float
    outcome: str
    failed_phase: Optional[int]


@dataclass
class AdaptiveResult:
    result: BoostResult
    gamma: float
    attempts: list


def adaptive_gamma(dataset: Dataset, spec: WeakLearnerSpec, gamma_init: float,
                   m0: Optional[int] = None, seed: int = 0, delta: float = 0.05,
                   audit_log: Optional[BrgAuditLog] = None) -> AdaptiveResult:
    """Halve the edge guess on failure until a run survives or the floor 1/m is hit.

    Every attempt recomputes (T, p, eta) from the current gamma. The number
    of attempts is at most log2(gamma_init * m) + 1.
    """
    if not (0.0 < gamma_init < 1.0):
        raise InvalidGamma(f"gamma_init must be in (0, 1), got {gamma_init!r}")
    floor = 1.0 / dataset.m
    attempts = []
    gamma = gamma_init
    while gamma >= floor * (1.0 - 1e-12):
        config = BoostConfig.from_defaults(dataset.m, gamma, m0=m0, seed=seed, delta=delta)
        try:
            result = recursive_boost(dataset, spec, config, audit_log=audit_log)
        except PhaseFailure as exc:
            attempts.append(AdaptiveAttempt(gamma=gamma, outcome="phase-failure",
                                            failed_phase=exc.phase))
            gamma = gamma / 2.0
            continue
        attempts.append(AdaptiveAttempt(gamma=gamma, outcome="success", failed_phase=None))
        return AdaptiveResult(result=result, gamma=gamma, attempts=attempts)
    raise GammaExhausted(
        f"no edge in [{floor:g}, {gamma_init:g}] produced a consistent run "
        f"({len(attempts)} attempts)"
    )
