"""Core domain types: labeled datasets, example distributions, label lists, seeded streams.

Instances are hashable keys: strings, integers, or tuples of floats (feature
vectors). Labels are dense non-negative integers 0..L-1 internally; file
loaders remap arbitrary integer labels on ingestion and remember the mapping.
A dataset is int64 arrays over a table of its distinct keys, and a sample is
a dataset too: no per-example object exists unless ``examples`` is read.
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


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


class Dataset:
    """An ordered multiset of labeled examples over a dense label alphabet, as integer arrays.

    Example i is ``key_table[key_ids[i]]`` labeled ``labels[i]``: a tuple of
    distinct keys and two read-only int64 arrays. A key table already in
    first-seen order is its own ``unique_instances``, with ``key_ids`` as
    ``group_ids``. ``subset`` shares the key table, and with it the memo of
    ``FiniteClass.columns_at``. ``instances`` and ``examples`` are views.
    """

    def __init__(self, key_table: tuple, key_ids, labels, alphabet):
        alphabet = tuple(alphabet)
        key_ids, labels = _read_only(key_ids), _read_only(labels)
        if key_ids.size == 0:
            raise InvalidParams("dataset needs at least one example")
        if len(alphabet) < 2:
            raise InvalidParams("label alphabet needs at least two labels")
        if alphabet != tuple(range(len(alphabet))):
            raise InvalidParams("internal alphabet must be dense 0..L-1")
        if key_ids.shape != labels.shape or key_ids.ndim != 1:
            raise InvalidParams("one key id and one label per example")
        outside = (labels < 0) | (labels >= len(alphabet))
        if outside.any():
            raise InvalidParams(f"label {labels[outside.argmax()]} outside alphabet")
        self.key_table, self.alphabet = tuple(key_table), alphabet
        self.key_ids, self.labels = key_ids, labels

    def subset(self, indices) -> "Dataset":
        """The examples at ``indices``, in that order, sharing this key table; not re-checked."""
        indices = np.asarray(indices, dtype=np.int64)
        sub = object.__new__(Dataset)
        sub.key_table, sub.alphabet = self.key_table, self.alphabet
        sub.key_ids = _read_only(self.key_ids[indices])
        sub.labels = _read_only(self.labels[indices])
        return sub

    @property
    def m(self) -> int:
        return len(self.key_ids)

    @cached_property
    def _groups(self) -> tuple:
        """(unique_instances, group_ids, first_index), from one np.unique over the key ids."""
        ids, first, inverse = np.unique(self.key_ids, return_index=True, return_inverse=True)
        if ids.size == len(self.key_table) and (first[1:] > first[:-1]).all():
            uniq, gid = self.key_table, self.key_ids
        else:
            order = np.argsort(first)  # the distinct ids in first-seen order
            uniq = tuple(map(self.key_table.__getitem__, ids[order].tolist()))
            gid, first = _read_only(np.argsort(order)[inverse]), first[order]
        first.setflags(write=False)
        return uniq, gid, first

    @property
    def unique_instances(self) -> tuple:
        """Distinct instance keys in first-seen order."""
        return self._groups[0]

    @property
    def group_ids(self) -> np.ndarray:
        """Index of each example's instance within unique_instances."""
        return self._groups[1]

    @property
    def first_index(self) -> np.ndarray:
        """Index of the first example of each instance in unique_instances."""
        return self._groups[2]

    @cached_property
    def instances(self) -> tuple:
        return tuple(map(self.key_table.__getitem__, self.key_ids.tolist()))

    @cached_property
    def examples(self) -> tuple:
        return tuple(map(LabeledExample, self.instances, self.labels.tolist()))


def make_dataset(pairs: Iterable, alphabet=None) -> Dataset:
    """Build a Dataset from (instance, label) pairs, inferring the alphabet if absent."""
    key_of = {}
    key_ids, labels = [], []
    for x, y in pairs:
        key_ids.append(key_of.setdefault(as_instance_key(x), len(key_of)))
        labels.append(int(y))
    if alphabet is None:
        alphabet = range(max(max(labels, default=0) + 1, 2))
    return Dataset(tuple(key_of), key_ids, labels, alphabet)


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
    renormalizing a result is the identity, bit for bit. The vector is the
    one-row case of ``normalize_rows``.

    Raises InvalidWeight for a negative, NaN or infinite entry, or for finite
    weights whose total overflows float64, and AllZeroWeights if all are zero.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise InvalidWeight("weights must be a non-empty 1-d vector")
    v = normalize_rows(w[None])[0]
    v.setflags(write=False)
    dist = object.__new__(ExampleDistribution)  # v is fresh and meets its checks already
    object.__setattr__(dist, "weights", v)
    return dist


def normalize_rows(weights) -> np.ndarray:
    """Each row of a non-empty 2-d array scaled by ``normalize``'s rule, in a fresh array.

    A row comes out with the same bits as ``normalize`` of that row alone: its
    total is the same pairwise sum over one contiguous row. The first row that
    ``normalize`` would refuse raises its error.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise InvalidWeight("weights must be a non-empty 2-d array")
    with np.errstate(over="ignore", invalid="ignore"):
        totals = w.sum(axis=1)
    tot = totals.tolist()
    # w.min() is NaN if any entry is; past that check no total is NaN, so min(tot) is exact
    if not (w.min() >= 0.0 and min(tot) > 0.0 and max(tot) < math.inf):
        low = w.min(axis=1)
        r = int((~((low >= 0.0) & (totals > 0.0) & (totals < math.inf))).argmax())
        if not low[r] >= 0.0:
            raise InvalidWeight("weights must be finite and non-negative")
        if tot[r] > 0.0:
            raise InvalidWeight(
                f"weights must be finite and sum to a finite total, got {tot[r]!r}")
        raise AllZeroWeights("cannot normalize an all-zero weight vector")
    v = w / totals[:, None]
    for r, top in enumerate(v.argmax(axis=1).tolist()):
        if abs(tot[r] - 1.0) <= _SUM_TOLERANCE and math.fsum(memoryview(w[r])) == 1.0:
            v[r] = w[r]
        else:
            # -fsum(others - 1) is 1 - sum(others) with one rounding
            row = v[r]
            row[top] = -1.0
            row[top] = -math.fsum(memoryview(row))
    return v


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

    @classmethod
    def tabled(cls, extend: Callable, instances, declared_size: int, name="") -> "ListFunction":
        """A composed list function whose table is ``extend`` at each of ``instances``."""
        return cls.composed(extend, declared_size, {x: extend(x) for x in instances}, name)

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


def coverage_mask(dataset: Dataset, mu: Callable) -> np.ndarray:
    """Per example: is its true label in mu(x)? ``mu`` is any instance -> list callable."""
    if isinstance(mu, ListFunction) and mu.is_universal:
        return np.ones(dataset.m, dtype=bool)
    lists = [mu(x) for x in dataset.unique_instances]
    n = len(dataset.alphabet)
    listed = np.zeros(len(lists) * n, dtype=bool)  # per (distinct instance, label) cell
    listed[[g * n + y for g, lst in enumerate(lists) for y in lst if 0 <= y < n]] = True
    return listed[dataset.group_ids * n + dataset.labels]


def ordered_dedup(items) -> tuple:
    """The distinct items, each at its first position."""
    return tuple(dict.fromkeys(items))
