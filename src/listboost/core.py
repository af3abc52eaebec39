"""Core domain types: labeled datasets, example distributions, label lists, seeded streams.

Instances are hashable keys: strings, integers, or tuples of floats (feature
vectors). Labels are dense non-negative integers 0..L-1 internally; file
loaders remap arbitrary integer labels on ingestion and remember the mapping.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import (
    AllZeroWeights,
    InvalidParams,
    InvalidWeight,
    ListLookupError,
)

InstanceKey = "str | int | tuple[float, ...]"

# How far a distribution's sum may sit from 1. numpy's pairwise sum of a vector
# whose exact sum is 1 lands orders of magnitude closer than this.
_SUM_TOLERANCE = 1e-12


def as_instance_key(x):
    """Coerce a raw instance into a hashable key (lists/arrays become float tuples)."""
    if isinstance(x, (str, int)):
        return x
    if isinstance(x, (list, tuple, np.ndarray)):
        return tuple(float(v) for v in x)
    if isinstance(x, float):
        return (x,)
    raise InvalidParams(f"unsupported instance type: {type(x).__name__}")


def stable_digest(obj) -> str:
    """Short stable hash of a plain-python object, used for behavior fingerprints."""
    payload = repr(obj).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=12).hexdigest()


@dataclass(frozen=True)
class LabeledExample:
    instance: object
    label: int


@dataclass(frozen=True)
class Dataset:
    """An ordered multiset of labeled examples over a dense label alphabet."""

    examples: tuple
    alphabet: tuple

    def __post_init__(self):
        if len(self.examples) == 0:
            raise InvalidParams("dataset needs at least one example")
        if len(self.alphabet) < 2:
            raise InvalidParams("label alphabet needs at least two labels")
        if tuple(self.alphabet) != tuple(range(len(self.alphabet))):
            raise InvalidParams("internal alphabet must be dense 0..L-1")
        for ex in self.examples:
            if ex.label not in self.alphabet:
                raise InvalidParams(f"label {ex.label} outside alphabet")

    @property
    def m(self) -> int:
        return len(self.examples)

    @cached_property
    def instances(self) -> tuple:
        return tuple(ex.instance for ex in self.examples)

    @cached_property
    def labels(self) -> np.ndarray:
        arr = np.array([ex.label for ex in self.examples], dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def unique_instances(self) -> tuple:
        """Distinct instance keys in first-seen order."""
        seen = {}
        for x in self.instances:
            if x not in seen:
                seen[x] = len(seen)
        return tuple(seen.keys())

    @cached_property
    def group_ids(self) -> np.ndarray:
        """Index of each example's instance within unique_instances."""
        pos = {x: i for i, x in enumerate(self.unique_instances)}
        arr = np.array([pos[x] for x in self.instances], dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def subset(self, indices) -> list:
        return [self.examples[i] for i in indices]


def make_dataset(pairs: Iterable, alphabet=None) -> Dataset:
    """Build a Dataset from (instance, label) pairs, inferring the alphabet if absent."""
    examples = tuple(LabeledExample(as_instance_key(x), int(y)) for x, y in pairs)
    if not examples:
        raise InvalidParams("dataset needs at least one example")
    if alphabet is None:
        top = max(ex.label for ex in examples)
        alphabet = tuple(range(max(top + 1, 2)))
    return Dataset(examples=examples, alphabet=tuple(alphabet))


@dataclass(frozen=True)
class ExampleDistribution:
    """A probability vector over the examples of some dataset."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise InvalidWeight("distribution must be a non-empty 1-d vector")
        # min() is NaN if any entry is; an infinite entry makes the sum fail
        if not w.min() >= 0.0:
            raise InvalidWeight("distribution entries must be finite and non-negative")
        total = float(w.sum())
        if not abs(total - 1.0) <= _SUM_TOLERANCE:
            raise InvalidWeight(f"distribution sums to {total!r}, not 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def normalize(weights) -> ExampleDistribution:
    """Scale non-negative weights to a probability vector whose sum is exactly 1.

    Exactly means the correctly rounded sum, ``math.fsum``, of the result is
    1.0. Each entry is its weight divided by the total, except the largest,
    which is set to the correctly rounded ``1 - (sum of the others)``; that
    single rounding leaves the exact sum within a quarter ulp of 1, which
    rounds to 1.0. That entry carries the rounding of all the others, so it
    can sit a few 1e-16 (absolute) from its exact share. A vector whose
    correctly rounded sum already is 1.0 is returned unchanged, so
    renormalizing a result is the identity, bit for bit.

    Raises InvalidWeight for a negative, NaN or infinite entry, or for finite
    weights whose total overflows float64, and AllZeroWeights if all are zero.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise InvalidWeight("weights must be a non-empty 1-d vector")
    if not w.min() >= 0.0:
        raise InvalidWeight("weights must be finite and non-negative")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not math.isfinite(total):
        raise InvalidWeight(f"weights must be finite and sum to a finite total, got {total!r}")
    if total == 0.0:
        raise AllZeroWeights("cannot normalize an all-zero weight vector")
    if abs(total - 1.0) <= _SUM_TOLERANCE and math.fsum(w.tolist()) == 1.0:
        return ExampleDistribution(weights=w)
    v = w / total
    top = int(v.argmax())
    # -fsum(others - 1) is 1 - sum(others) with one rounding
    v[top] = -1.0
    v[top] = -math.fsum(memoryview(v))
    return ExampleDistribution(weights=v)


def _tag_to_int(tag) -> int:
    digest = hashlib.blake2b(repr(tag).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RandomStream:
    """A seeded random source addressed by a derivation path.

    Two streams built from the same (seed, path) produce identical draw
    sequences; child streams with distinct tags are independent by
    construction. A single stream instance is meant for sequential use only.
    """

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(path)
        self._gen = None

    def child(self, *tags) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(tags))

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            spawn_key = tuple(_tag_to_int(t) for t in self.path)
            self._gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=spawn_key))
            )
        return self._gen

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, path={self.path})"


class ListFunction:
    """A map from instances to short duplicate-free label lists.

    Three backing kinds:
      * ``explicit-table``: a finite table of instance -> list entries.
      * ``universal``: every instance maps to the whole alphabet (the
        "no hint yet" sentinel; audits treat it as the unbounded-list case).
      * ``composed``: lists are computed on demand by a closure, with an
        optional table of precomputed entries taking precedence.
    """

    __slots__ = ("kind", "declared_size", "entries", "alphabet", "extend", "name")

    def __init__(self, kind, declared_size, entries=None, alphabet=None, extend=None, name=""):
        if declared_size < 1:
            raise InvalidParams("declared list size must be at least 1")
        if kind not in ("explicit-table", "universal", "composed"):
            raise InvalidParams(f"unknown list-function kind: {kind}")
        if entries is not None:
            for key, lst in entries.items():
                if len(set(lst)) != len(lst):
                    raise InvalidParams(f"duplicate labels in list for {key!r}")
                if len(lst) > declared_size:
                    raise InvalidParams(
                        f"list for {key!r} has {len(lst)} labels, max {declared_size}"
                    )
        self.kind = kind
        self.declared_size = int(declared_size)
        self.entries = dict(entries) if entries is not None else None
        self.alphabet = tuple(alphabet) if alphabet is not None else None
        self.extend = extend
        self.name = name or kind

    @classmethod
    def explicit(cls, entries: dict, declared_size: int, name="") -> "ListFunction":
        entries = {k: tuple(v) for k, v in entries.items()}
        return cls("explicit-table", declared_size, entries=entries, name=name)

    @classmethod
    def universal(cls, alphabet, name="universal") -> "ListFunction":
        alphabet = tuple(alphabet)
        return cls("universal", len(alphabet), alphabet=alphabet, name=name)

    @classmethod
    def composed(cls, extend: Callable, declared_size: int, entries=None, name="") -> "ListFunction":
        entries = {k: tuple(v) for k, v in entries.items()} if entries else None
        return cls("composed", declared_size, entries=entries, extend=extend, name=name)

    @property
    def is_universal(self) -> bool:
        return self.kind == "universal"

    def __call__(self, x) -> tuple:
        if self.kind == "universal":
            return self.alphabet
        if self.entries is not None and x in self.entries:
            return self.entries[x]
        if self.extend is not None:
            lst = tuple(self.extend(x))
            if len(lst) > self.declared_size:
                lst = lst[: self.declared_size]
            return lst
        raise ListLookupError(f"no list for instance {x!r}")

    def __repr__(self):
        return f"ListFunction({self.name}, k={self.declared_size})"


def ordered_dedup(items) -> tuple:
    seen = set()
    out = []
    for v in items:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)
