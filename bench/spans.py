"""Spans around the benchmark's calls into each listboost module.

While installed, the tracer replaces module attributes and class methods of
the package with timing wrappers, and ``uninstall`` puts the originals back;
no file of the package changes. A function that another module imported by
name is wrapped at each importing module, which is where it is looked up at
call time. Spans (name, parent, start, end) go into flat arrays in memory and
are written once, when the run ends.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np


def _after_hedge(counters, args, result):
    counters["hedge.rounds"] += len(result.rounds)


def _after_hint(counters, args, result):
    counters["hint.rounds"] += result.rounds_run


def _after_boost(counters, args, result):
    counters["recursive.phases"] += result.chain.realized_phases
    hint = result.hint_result.mu
    longest = max(len(hint(x)) for x in args[0].unique_instances)
    counters["recursive.max_hint_list"] = max(counters["recursive.max_hint_list"], longest)


def _after_dump(counters, args, result):
    counters["compression.record_bytes"] += os.path.getsize(args[1])


def _targets():
    """(owner, attribute, span name, hook run on the result) for every wrapped call."""
    # Imported here, not at module level: set-up re-imports the package, and the
    # wrappers must go on the modules the pipeline actually calls.
    from listboost import compression, core, hedge, hint, oig, recursive, weak_learn

    return [
        (hedge, "normalize", "core.normalize", None),
        (hint, "normalize", "core.normalize", None),
        (core.RandomStream, "generator", "core.stream", None),
        (core.Dataset, "subset", "core.subset", None),
        (core, "stable_digest", "core.digest", None),
        (hint, "stable_digest", "core.digest", None),
        (recursive, "stable_digest", "core.digest", None),
        (weak_learn.ErmFiniteLearner, "train", "weak_learn.train", None),
        (weak_learn.CalibratedBrgOracle, "train_weighted", "weak_learn.train", None),
        (weak_learn.WeakHypothesis, "predictions_for", "weak_learn.predictions_for", None),
        (hedge, "audit_from_arrays", "weak_learn.audit", None),
        (hint, "audit_from_arrays", "weak_learn.audit", None),
        (hedge, "run_hedge", "hedge.run", _after_hedge),
        (hedge, "replay_hedge", "hedge.replay", _after_hedge),
        (recursive, "run_hedge", "hedge.run", _after_hedge),
        (recursive, "replay_hedge", "hedge.replay", _after_hedge),
        (hedge.ScoreTable, "counts", "hedge.score_counts", None),
        (recursive, "build_initial_hint", "hint.run", _after_hint),
        (recursive, "replay_initial_hint", "hint.run", _after_hint),
        (recursive, "recursive_boost", "recursive.boost", _after_boost),
        (recursive, "replay_boost", "recursive.replay", None),
        (recursive.StagedListChain, "predict", "recursive.predict", None),
        (compression.CompressionRecord, "dump", "compression.dump", _after_dump),
        (compression.CompressionRecord, "load", "compression.load", None),
        (compression, "reconstruct", "compression.reconstruct", None),
        (oig, "k_list_pac_learn", "oig.listpac", None),
        (oig, "replay_list_pac", "oig.replay", None),
        (oig, "kds_dimension", "oig.dimension", None),
        (oig, "initial_cover", "oig.cover", None),
        (oig, "wrong_label_learner", "oig.game", None),
        (oig, "one_inclusion_list_predict", "oig.list_predict", None),
        (oig, "find_orientation", "oig.orientation", None),
    ]


MODULES = ("core", "weak_learn", "hedge", "hint", "recursive", "compression", "oig")

# per-layer metric -> (unit, how it is read from one round's aggregates)
PER_LAYER = {
    "core.normalize.calls": ("count", ("calls", "core.normalize")),
    "core.normalize.s": ("s", ("s", "core.normalize")),
    "core.stream.generators": ("count", ("calls", "core.stream")),
    "core.stream.s": ("s", ("s", "core.stream")),
    "core.subset.s": ("s", ("s", "core.subset")),
    "core.digest.calls": ("count", ("calls", "core.digest")),
    "core.digest.s": ("s", ("s", "core.digest")),
    "weak_learn.train.calls": ("count", ("calls", "weak_learn.train")),
    "weak_learn.train.s": ("s", ("s", "weak_learn.train")),
    "weak_learn.predictions_for.s": ("s", ("s", "weak_learn.predictions_for")),
    "weak_learn.audit.calls": ("count", ("calls", "weak_learn.audit")),
    "weak_learn.audit.s": ("s", ("s", "weak_learn.audit")),
    "hedge.rounds": ("count", ("counter", "hedge.rounds")),
    "hedge.run.s": ("s", ("s", "hedge.run")),
    "hedge.replay.s": ("s", ("s", "hedge.replay")),
    "hedge.self.s": ("s", ("self", "hedge.run", "hedge.replay")),
    "hedge.score_counts.calls": ("count", ("calls", "hedge.score_counts")),
    "hedge.score_counts.s": ("s", ("s", "hedge.score_counts")),
    "hint.rounds": ("count", ("counter", "hint.rounds")),
    "hint.s": ("s", ("s", "hint.run")),
    "recursive.phases": ("count", ("counter", "recursive.phases")),
    "recursive.max_hint_list": ("count", ("counter", "recursive.max_hint_list")),
    "recursive.self.s": ("s", ("self", "recursive.boost")),
    "recursive.replay_self.s": ("s", ("self", "recursive.replay")),
    "recursive.predict.calls": ("count", ("calls", "recursive.predict")),
    "recursive.predict.s": ("s", ("s", "recursive.predict")),
    "compression.record_bytes": ("bytes", ("counter", "compression.record_bytes")),
    "compression.dump.s": ("s", ("s", "compression.dump")),
    "compression.load.s": ("s", ("s", "compression.load")),
    "compression.reconstruct.s": ("s", ("s", "compression.reconstruct")),
    "oig.dimension.s": ("s", ("s", "oig.dimension")),
    "oig.cover.s": ("s", ("s", "oig.cover")),
    "oig.game.calls": ("count", ("calls", "oig.game")),
    "oig.game.s": ("s", ("s", "oig.game")),
    "oig.list_predict.calls": ("count", ("calls", "oig.list_predict")),
    "oig.list_predict.s": ("s", ("s", "oig.list_predict")),
    "oig.orientation.calls": ("count", ("calls", "oig.orientation")),
    "oig.orientation.s": ("s", ("s", "oig.orientation")),
}
PER_LAYER.update({f"module.{mod}.self.s": ("s", ("module", mod)) for mod in MODULES})


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._originals: list = []
        self.rounds: list = []  # (first span, end span, counters) per traced round
        self.counters = Counter()
        self._first = 0

    def _wrap(self, fn, name: str, hook):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, counters = self.name_id, self.parent, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, hook in _targets():
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name, hook))
            else:
                patched = self._wrap(original, name, hook)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def begin_round(self):
        self._first = len(self.start)
        self.counters.clear()

    def end_round(self):
        self.rounds.append((self._first, len(self.start), dict(self.counters)))

    def _round_aggregates(self, first: int, stop: int, counters: dict) -> dict:
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:stop]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:stop]
        dur = (np.frombuffer(self.end, dtype=np.float64)[first:stop]
               - np.frombuffer(self.start, dtype=np.float64)[first:stop])
        has_parent = parent >= first
        child = np.bincount(parent[has_parent] - first, weights=dur[has_parent],
                            minlength=dur.size)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=dur - child, minlength=n)
        by_name = {name: (int(calls[i]), float(total[i]), float(own[i]))
                   for i, name in enumerate(self.names)}
        out = {}
        for metric, (_, (kind, *keys)) in PER_LAYER.items():
            if kind == "counter":
                out[metric] = counters.get(keys[0], 0)
            elif kind == "module":
                out[metric] = sum(v[2] for name, v in by_name.items()
                                  if name.startswith(keys[0] + "."))
            else:
                col = {"calls": 0, "s": 1, "self": 2}[kind]
                out[metric] = sum(by_name.get(key, (0, 0.0, 0.0))[col] for key in keys)
        return out

    def per_round(self) -> list:
        """Every per-layer metric, one dict per traced round."""
        return [self._round_aggregates(*r) for r in self.rounds]

    def write(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 rounds=np.array([(a, b) for a, b, _ in self.rounds], dtype=np.int64))
