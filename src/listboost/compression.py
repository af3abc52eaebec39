"""Sample-compression records, reconstruction, and generalization accounting.

A record stores, per pipeline stage, one slot per distinct trained hypothesis
(in first-draw order) with the ordered dataset indices it was trained on, and
the slot id each round drew (``draws``; a /1 record has a slot per round and
no draws). Reconstruction replays the deterministic learner on those index
sequences and must reproduce the predictor bit for bit; per-slot prediction
fingerprints, and each Hedge stage's audit pass count, catch any divergence.
``slot_group`` writes every group, in training and in replay: it hashes the
slots' prediction rows and checks them against the recorded slots. Every
replay reads its meta with ``read_meta``, range-checks every index before it
replays (``check_record_ids``), and compares the record it rebuilds with the
given one whole (``check_rebuilt``). The record size r counts draws times
slot size (kappa, the distinct slots' indices alone, is less), and the bound

    eps(r, m, delta) = (r * ln(m) + ln(1/delta)) / (m - r)

controls the probability that a training-consistent output errs more than
eps: over random m-samples, Pr[consistent and true error > eps] <= delta.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import core
from .core import Dataset, RandomStream
from .errors import InvalidParams, NonDeterministicLearner, RTooLarge

RECORD_FORMAT = "listboost-record/2"


def _check_ints(g: dict) -> None:
    """InvalidParams naming group ``g`` and its first slot id, index or draw that is
    not a JSON integer (a bool is not one)."""
    slots, draws = g["slots"], g.get("draws") or ()
    if set(map(type, itertools.chain([s["slot"] for s in slots],
                                     *[s["indices"] for s in slots], draws))) <= {int}:
        return
    values = itertools.chain(
        (("has a non-integer slot id", s["slot"]) for s in slots),
        ((f"slot {s['slot']} has a non-integer index", i) for s in slots for i in s["indices"]),
        (("draws a non-integer slot id", d) for d in draws))
    what, bad = next((what, v) for what, v in values if type(v) is not int)
    raise InvalidParams(f"group {g['tag']!r} {what}: {bad!r}")


@dataclass(frozen=True)
class HypothesisSlot:
    """One training call: the example indices it consumed, in draw order."""

    slot: int
    indices: tuple
    pred_hash: str = ""

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(map(int, self.indices)))


@dataclass
class RecordGroup:
    """A stage's slots, each round's slot id (None: each slot once) and audit pass count."""

    tag: str
    slots: list
    draws: Optional[list] = None
    audits_passed: Optional[int] = None

    def size(self) -> int:
        if self.draws is None:
            return sum(len(s.indices) for s in self.slots)
        return sum(len(self.slots[d].indices) for d in self.draws)


@dataclass
class CompressionRecord:
    pipeline: str
    meta: dict
    groups: list
    format: str = RECORD_FORMAT  # a loaded record keeps the format it was read with

    def group(self, tag: str) -> RecordGroup:
        for g in self.groups:
            if g.tag == tag:
                return g
        raise InvalidParams(f"record has no group {tag!r}")

    def to_json_dict(self) -> dict:
        return {
            "format": self.format,
            "pipeline": self.pipeline,
            "meta": self.meta,
            "groups": [
                {
                    "tag": g.tag,
                    "slots": [
                        {"slot": s.slot, "indices": list(s.indices), "pred_hash": s.pred_hash}
                        for s in g.slots
                    ],
                    "draws": list(g.draws) if g.draws is not None else None,
                    **({"audits_passed": g.audits_passed} if g.audits_passed is not None
                       else {}),
                }
                for g in self.groups
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CompressionRecord":
        if obj.get("format") not in (RECORD_FORMAT, "listboost-record/1"):
            raise InvalidParams(f"unsupported record format: {obj.get('format')!r}")
        groups = []
        for g in obj["groups"]:
            _check_ints(g)
            slots = [HypothesisSlot(slot=s["slot"], indices=s["indices"],
                                    pred_hash=s.get("pred_hash", "")) for s in g["slots"]]
            draws = list(g["draws"]) if g.get("draws") is not None else None
            groups.append(RecordGroup(g["tag"], slots, draws, g.get("audits_passed")))
        return cls(obj["pipeline"], dict(obj["meta"]), groups, obj["format"])

    def dump(self, path):
        """Write the record as one line of JSON, built by ``json.dumps``'s C encoder in one
        call (``json.dump`` streams the same text through the pure-Python encoder)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "CompressionRecord":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def slot_group(tag: str, indices, rows, recorded=(), draws=None) -> RecordGroup:
    """The record group ``tag``: slot n holds ``indices[n]`` and the digest of ``rows[n]``.

    ``draws`` is each round's slot id (None: each slot once); a Hedge group's slots are its
    distinct hypotheses in first-draw order. A row, an int array hashed as the tuple of its
    entries or a tuple hashed as it is, is hashed once per distinct row. Replay passes the
    ``recorded`` slots: the first whose pred_hash differs raises NonDeterministicLearner
    naming ``tag`` and the slot; an empty pred_hash, or a slot the replay never reached, is
    left to ``check_rebuilt``.
    """
    digests = {}  # an array row's bytes, or a tuple row itself -> its digest
    slots = []
    for n, (ix, row) in enumerate(zip(indices, rows)):
        is_tuple = isinstance(row, tuple)
        key = row if is_tuple else row.tobytes()
        digest = digests.get(key)
        if digest is None:
            # looked up on core at call time, where a tracer may wrap it
            digest = digests[key] = core.stable_digest(row if is_tuple else tuple(row.tolist()))
        slots.append(HypothesisSlot(slot=n, indices=ix, pred_hash=digest))
    for slot, got in zip(recorded, slots):
        if slot.pred_hash and got.pred_hash != slot.pred_hash:
            raise NonDeterministicLearner(f"{tag} slot {slot.slot}: replayed hypothesis "
                                          "diverged from the record")
    return RecordGroup(tag=tag, slots=slots,
                       draws=list(map(int, draws)) if draws is not None else None)


def hedge_group(tag: str, result, recorded: Optional[RecordGroup] = None) -> RecordGroup:
    """A ``hedge.HedgeResult``'s group: each slot's sample and row from the round that
    first drew it, the ``draws`` and the audit pass count. Replay passes the ``recorded``
    group; one without draws (format /1) is rebuilt as it was, without either."""
    first = [result.draws.index(s) for s in range(max(result.draws) + 1)]
    group = slot_group(tag, [result.rounds[t].indices for t in first],
                       result.score.predictions[first], recorded.slots if recorded else ())
    if recorded is None or recorded.draws is not None:
        group.draws, audits = list(result.draws), result.audits
        group.audits_passed = sum(a.passed for a in audits) if audits else None
    return group


def read_meta(record: CompressionRecord, keys) -> dict:
    """The record meta at ``keys``; InvalidParams names the first key it lacks."""
    for key in keys:
        if key not in record.meta:
            raise InvalidParams(f"record meta has no key {key!r}")
    return {key: record.meta[key] for key in keys}


def check_record_ids(record: CompressionRecord, m: int) -> None:
    """InvalidParams unless each slot index is in [0, m) and each draw names a slot."""
    for g in record.groups:
        bad = next(((s.slot, i) for s in g.slots for i in s.indices if not 0 <= i < m), None)
        if bad:
            raise InvalidParams(f"group {g.tag!r} has a slot index outside [0, {m}): "
                                f"slot {bad[0]} index {bad[1]}")
        bad = [sid for sid in g.draws or () if not 0 <= sid < len(g.slots)]
        if bad:
            raise InvalidParams(f"group {g.tag!r} draws a slot id outside "
                                f"[0, {len(g.slots)}): {bad[0]}")


def check_rebuilt(record: CompressionRecord, rebuilt: CompressionRecord) -> None:
    """InvalidParams unless the replay rebuilt the record whole, naming where it
    first differs: a meta key (both values), else a group, else the header. The
    rebuilt record takes the given one's format."""
    rebuilt.format = record.format
    new, old = rebuilt.to_json_dict(), record.to_json_dict()
    if new != old:
        a, b = new["meta"], old["meta"]
        where = [f"meta key {key!r} (replayed {a.get(key)!r}, recorded {b.get(key)!r})"
                 for key in {**b, **a} if (key in a, a.get(key)) != (key in b, b.get(key))]
        where += [f"group {(g or h)['tag']!r}" for g, h in
                  itertools.zip_longest(old["groups"], new["groups"]) if g != h]
        raise InvalidParams(f"record does not match its replay at {(where + ['the header'])[0]}")


def compression_size(record: CompressionRecord) -> int:
    """Total transmitted example indices r, counting repeats: draws times slot size."""
    return sum(g.size() for g in record.groups)


def generalization_bound(r: int, m: int, delta: float) -> float:
    """Conditional compression bound eps = (r ln m + ln(1/delta)) / (m - r)."""
    if m < 1:
        raise InvalidParams("m must be at least 1")
    if r < 0:
        raise InvalidParams("record size r cannot be negative")
    if not (0.0 < delta <= 1.0):
        raise InvalidParams(f"delta must be in (0, 1], got {delta!r}")
    if r >= m:
        raise RTooLarge(f"record size {r} >= sample size {m}; bound is vacuous")
    return (r * math.log(m) + math.log(1.0 / delta)) / (m - r)


def bound_is_vacuous(eps: float) -> bool:
    return not (eps < 1.0)


def reconstruct(record: CompressionRecord, dataset: Dataset, spec=None, finite_class=None):
    """Replay a record into a predictor; dispatches on the recorded pipeline.

    Raises NonDeterministicLearner when a replayed hypothesis's prediction
    fingerprint disagrees with the recorded one, and InvalidParams when the
    record breaks the replay contract above.
    """
    if record.pipeline == "boost":
        from .recursive import replay_boost

        return replay_boost(record, dataset, spec)
    if record.pipeline == "list-boost":
        from .listlearn import replay_weak_to_list

        return replay_weak_to_list(record, dataset, spec)
    if record.pipeline == "oig-listpac":
        from .oig import replay_list_pac

        return replay_list_pac(record, dataset, finite_class)
    raise InvalidParams(f"unknown pipeline {record.pipeline!r}")


@dataclass
class SchemeRun:
    """What a compression scheme yields on one sample: lists, size, consistency."""

    lists: Callable
    r: int
    consistent: bool


@dataclass
class MonteCarloReport:
    trials: int
    failures: int
    vacuous: int
    consistent_runs: int
    rows: list

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0


def monte_carlo_compression_check(scheme: Callable, sampler, m: int, delta: float,
                                  trials: int, seed: int = 0) -> MonteCarloReport:
    """Estimate how often a scheme is consistent yet errs beyond the bound.

    ``sampler`` must provide ``draw(m, rng) -> Dataset`` and
    ``true_list_error(lists) -> float`` (exact, against its own ground
    truth). ``scheme`` maps (dataset, rng) to a SchemeRun. Trials whose
    record is at least the sample size are counted as vacuous, not failures.
    """
    if trials < 1:
        raise InvalidParams("need at least one trial")
    root = RandomStream(seed, ("mc-compression",))
    failures = 0
    vacuous = 0
    consistent_runs = 0
    rows = []
    for trial in range(trials):
        rng = root.child("trial", trial)
        ds = sampler.draw(m, rng.child("data"))
        run = scheme(ds, rng.child("scheme"))
        row = {"trial": trial, "r": run.r, "consistent": bool(run.consistent)}
        if run.r >= m:
            vacuous += 1
            row.update(epsilon=None, true_error=None, failure=False, vacuous=True)
        else:
            eps = generalization_bound(run.r, m, delta)
            err = float(sampler.true_list_error(run.lists))
            failure = bool(run.consistent and err > eps)
            if run.consistent:
                consistent_runs += 1
            failures += failure
            row.update(epsilon=eps, true_error=err, failure=failure, vacuous=False)
        rows.append(row)
    return MonteCarloReport(trials=trials, failures=failures, vacuous=vacuous,
                            consistent_runs=consistent_runs, rows=rows)
