"""One-inclusion-graph toolkit over finite hypothesis classes.

A finite class is a duplicate-free matrix: rows are hypotheses, columns are
instance keys, cells are labels. The one-inclusion hypergraph, its list
orientations, the shattering dimension built from neighbor counts, and the
list-prediction algorithms on top are all exact, budgeted enumerations meant
for desk-scale inputs (hundreds of rows, around a dozen columns).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .compression import (
    CompressionRecord,
    HypothesisSlot,
    RecordGroup,
    check_fingerprints,
    compression_size,
)
from .core import (
    Dataset,
    ListFunction,
    RandomStream,
    as_instance_key,
    coverage_mask,
    make_dataset,
    ordered_dedup,
    stable_digest,
)
from .errors import (
    BudgetExceeded,
    EmptyClass,
    GameNotConverged,
    InvalidParams,
    NotRealizable,
    SearchExhausted,
    UnknownInstance,
)


@dataclass(frozen=True)
class FiniteClass:
    """A finite hypothesis class as a (rows x columns) label matrix."""

    table: np.ndarray
    columns: tuple
    alphabet: tuple

    def __post_init__(self):
        tbl = np.asarray(self.table, dtype=np.int64)
        if tbl.ndim != 2 or tbl.shape[0] == 0 or tbl.shape[1] == 0:
            raise EmptyClass("class table must be a non-empty 2-d matrix")
        if tbl.shape[1] != len(self.columns):
            raise InvalidParams("column count does not match key count")
        if len(set(self.columns)) != len(self.columns):
            raise InvalidParams("duplicate column keys")
        if np.unique(tbl, axis=0).shape[0] != tbl.shape[0]:
            raise InvalidParams("duplicate hypothesis rows")
        if not set(np.unique(tbl)).issubset(set(self.alphabet)):
            raise InvalidParams("table labels outside the declared alphabet")
        tbl = tbl.copy()
        tbl.setflags(write=False)
        object.__setattr__(self, "table", tbl)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))

    @property
    def size(self) -> int:
        return int(self.table.shape[0])

    @property
    def n(self) -> int:
        return int(self.table.shape[1])

    @cached_property
    def col_index(self) -> dict:
        return {key: j for j, key in enumerate(self.columns)}

    @cached_property
    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.blake2b(digest_size=12)
        h.update(self.table.tobytes())
        h.update(repr(self.columns).encode())
        return h.hexdigest()

    def column_of(self, key) -> int:
        try:
            return self.col_index[key]
        except KeyError:
            raise UnknownInstance(f"instance {key!r} is not a class column") from None

    def column_ids(self, keys) -> np.ndarray:
        """The column of each key, as an int64 array, in one pass over ``keys``."""
        try:
            return np.fromiter(map(self.col_index.__getitem__, keys), dtype=np.int64)
        except KeyError as exc:
            raise UnknownInstance(f"instance {exc.args[0]!r} is not a class column") from None

    @classmethod
    def from_rows(cls, rows, columns, alphabet=None) -> "FiniteClass":
        tbl = np.asarray(rows, dtype=np.int64)
        tbl = np.unique(tbl, axis=0)
        if alphabet is None:
            alphabet = tuple(range(int(tbl.max()) + 1))
        return cls(table=tbl, columns=tuple(columns), alphabet=tuple(alphabet))

    def to_json_dict(self) -> dict:
        cols = [list(c) if isinstance(c, tuple) else c for c in self.columns]
        return {
            "columns": cols,
            "alphabet": list(self.alphabet),
            "rows": self.table.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FiniteClass":
        columns = tuple(as_instance_key(c) for c in obj["columns"])
        alphabet = tuple(obj.get("alphabet") or range(int(np.max(obj["rows"])) + 1))
        return cls(table=np.asarray(obj["rows"], dtype=np.int64), columns=columns, alphabet=alphabet)


def load_finite_class(path) -> FiniteClass:
    with open(path, "r", encoding="utf-8") as fh:
        return FiniteClass.from_json_dict(json.load(fh))


def save_finite_class(fc: FiniteClass, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fc.to_json_dict(), fh)
        fh.write("\n")


def restrict_class(fc: FiniteClass, col_ids) -> FiniteClass:
    """The class projected onto the given column positions, duplicates removed."""
    col_ids = list(col_ids)
    if not col_ids:
        raise InvalidParams("restriction needs at least one column")
    keys = tuple(fc.columns[j] for j in col_ids)
    return FiniteClass.from_rows(fc.table[:, col_ids], keys, alphabet=fc.alphabet)


# ---------------------------------------------------------------------------
# The one-inclusion hypergraph and its list orientations.


@dataclass(frozen=True)
class Edge:
    """All rows agreeing everywhere except at ``direction``."""

    direction: int
    off: tuple
    members: tuple


@dataclass
class OneInclusionGraph:
    fc: FiniteClass
    edges: list
    incident: tuple  # incident[v] = tuple of edge ids

    @property
    def n_vertices(self) -> int:
        return self.fc.size

    def edge_id(self, direction: int, off: tuple):
        return self._edge_lookup.get((direction, tuple(off)))

    @cached_property
    def _edge_lookup(self) -> dict:
        return {(e.direction, e.off): i for i, e in enumerate(self.edges)}


def build_oig(fc: FiniteClass) -> OneInclusionGraph:
    """Group rows by (direction, off-coordinate pattern); singletons included."""
    edges = []
    incident = [[] for _ in range(fc.size)]
    for i in range(fc.n):
        reduced = np.delete(fc.table, i, axis=1)
        _, inverse = np.unique(reduced, axis=0, return_inverse=True)
        groups = {}
        for row, g in enumerate(inverse):
            groups.setdefault(int(g), []).append(row)
        for g in sorted(groups):
            members = tuple(groups[g])
            off = tuple(int(v) for v in reduced[members[0]])
            eid = len(edges)
            edges.append(Edge(direction=i, off=off, members=members))
            for v in members:
                incident[v].append(eid)
    return OneInclusionGraph(fc=fc, edges=edges, incident=tuple(tuple(ids) for ids in incident))


def k_degree(graph: OneInclusionGraph, vertex: int, k: int) -> int:
    """How many edges containing the vertex have size strictly above k."""
    return sum(1 for eid in graph.incident[vertex] if len(graph.edges[eid].members) > k)


@dataclass
class Orientation:
    k: int
    sigma: tuple  # sigma[edge_id] = tuple of chosen vertices
    max_out_degree: int
    strategy: str
    optimal: bool


def _out_degrees(graph: OneInclusionGraph, sigma) -> np.ndarray:
    deg = np.zeros(graph.n_vertices, dtype=np.int64)
    for eid, edge in enumerate(graph.edges):
        chosen = set(sigma[eid])
        for v in edge.members:
            if v not in chosen:
                deg[v] += 1
    return deg


def _greedy_orientation(graph: OneInclusionGraph, k: int) -> Orientation:
    """Peel the minimum-degree vertex, admitting it into edges with spare capacity."""
    n_v = graph.n_vertices
    alive = [True] * n_v
    alive_sizes = [len(e.members) for e in graph.edges]
    chosen = [[] for _ in graph.edges]
    remaining = n_v
    while remaining:
        best_v, best_deg = -1, None
        for v in range(n_v):
            if not alive[v]:
                continue
            deg = sum(1 for eid in graph.incident[v] if alive_sizes[eid] > k)
            if best_deg is None or deg < best_deg:
                best_v, best_deg = v, deg
        for eid in graph.incident[best_v]:
            if len(chosen[eid]) < k:
                chosen[eid].append(best_v)
            alive_sizes[eid] -= 1
        alive[best_v] = False
        remaining -= 1
    sigma = tuple(tuple(sorted(c)) for c in chosen)
    return Orientation(k=k, sigma=sigma,
                       max_out_degree=int(_out_degrees(graph, sigma).max(initial=0)),
                       strategy="greedy", optimal=False)


def _exhaustive_orientation(graph: OneInclusionGraph, k: int, budget: int,
                            upper: Optional[Orientation] = None) -> Orientation:
    oversized = [eid for eid, e in enumerate(graph.edges) if len(e.members) > k]
    total = 1
    for eid in oversized:
        total *= math.comb(len(graph.edges[eid].members), k)
        if total > budget:
            raise BudgetExceeded(
                f"exhaustive orientation needs {total}+ assignments (> budget {budget})"
            )
    base = [tuple(e.members) if len(e.members) <= k else None for e in graph.edges]
    upper = upper if upper is not None else _greedy_orientation(graph, k)
    best_val = upper.max_out_degree
    best_sigma = None
    deg = np.zeros(graph.n_vertices, dtype=np.int64)
    picks = [None] * len(oversized)

    def dfs(pos: int, cur_max: int):
        nonlocal best_val, best_sigma
        if cur_max >= best_val:  # partial degrees only grow; no strict improvement left
            return
        if pos == len(oversized):
            best_val = cur_max
            best_sigma = list(picks)
            return
        edge = graph.edges[oversized[pos]]
        for combo in itertools.combinations(edge.members, k):
            combo_set = set(combo)
            out = [v for v in edge.members if v not in combo_set]
            new_max = cur_max
            for v in out:
                deg[v] += 1
                if deg[v] > new_max:
                    new_max = int(deg[v])
            if new_max < best_val:
                picks[pos] = combo
                dfs(pos + 1, new_max)
            for v in out:
                deg[v] -= 1

    dfs(0, 0)
    if best_sigma is None:  # greedy was already optimal
        gre = upper
        return Orientation(k=k, sigma=gre.sigma, max_out_degree=gre.max_out_degree,
                           strategy="exhaustive", optimal=True)
    sigma = list(base)
    for pos, eid in enumerate(oversized):
        sigma[eid] = tuple(sorted(best_sigma[pos]))
    sigma = tuple(tuple(s) for s in sigma)
    return Orientation(k=k, sigma=sigma,
                       max_out_degree=int(_out_degrees(graph, sigma).max(initial=0)),
                       strategy="exhaustive", optimal=True)


def find_orientation(graph: OneInclusionGraph, k: int, strategy: str = "auto",
                     budget: int = 10**6) -> Orientation:
    """A k-list orientation; exhaustive search is provably min-max, greedy is not."""
    if k < 1:
        raise InvalidParams("orientation list size k must be at least 1")
    if strategy not in ("auto", "exhaustive", "greedy"):
        raise InvalidParams(f"unknown orientation strategy {strategy!r}")
    if strategy == "greedy":
        return _greedy_orientation(graph, k)
    greedy = _greedy_orientation(graph, k)
    if greedy.max_out_degree == 0:
        return Orientation(k=k, sigma=greedy.sigma, max_out_degree=0,
                           strategy="exhaustive", optimal=True)
    try:
        return _exhaustive_orientation(graph, k, budget, upper=greedy)
    except BudgetExceeded:
        if strategy == "exhaustive":
            raise
        return greedy


# ---------------------------------------------------------------------------
# Shattering dimension via iterated neighbor-deficient deletion.


def _shatter_core(rows: np.ndarray, k: int) -> int:
    """Size of the largest sub-family where every row has >= k neighbors per direction."""
    cur = rows
    d = cur.shape[1]
    while cur.shape[0]:
        keep = np.ones(cur.shape[0], dtype=bool)
        for i in range(d):
            reduced = np.delete(cur, i, axis=1) if d > 1 else np.zeros((cur.shape[0], 1), dtype=np.int64)
            _, inverse, counts = np.unique(reduced, axis=0, return_inverse=True,
                                           return_counts=True)
            keep &= counts[inverse] >= k + 1
        if keep.all():
            return int(cur.shape[0])
        cur = cur[keep]
    return 0


def kds_dimension(fc: FiniteClass, k: int, budget: int = 10**6) -> int:
    """The largest d such that some d columns are k-shattered by a witness family.

    A witness family needs every member to have at least k same-edge neighbors
    in every direction; iterated deletion of deficient rows finds the maximal
    witness, and a non-empty fixed point certifies shattering. Projecting a
    witness onto fewer columns keeps k + 1 labels per edge, so subsets of a
    shattered set are shattered: sizes are searched upward, up to the first
    one with no shattered subset, and ``budget`` caps each size's subsets.
    """
    if k < 1:
        raise InvalidParams("list size k must be at least 1")
    n = fc.n
    size = fc.size
    d_max = 0
    while (k + 1) ** (d_max + 1) <= size and d_max + 1 <= n:
        d_max += 1
    for d in range(1, d_max + 1):
        n_subsets = math.comb(n, d)
        if n_subsets > budget:
            raise BudgetExceeded(
                f"{n_subsets} column subsets of size {d} exceed budget {budget}"
            )
        subs = (np.unique(fc.table[:, cols], axis=0)
                for cols in itertools.combinations(range(n), d))
        if not any(sub.shape[0] >= (k + 1) ** d and _shatter_core(sub, k) for sub in subs):
            return d - 1
    return d_max


# ---------------------------------------------------------------------------
# Algorithm: one-inclusion list prediction.


_ORIENT_CACHE: dict = {}
_ORIENT_CACHE_CAP = 20000


def _oriented_restriction(fc: FiniteClass, col_ids: tuple, k: int, strategy: str,
                          budget: int):
    key = (fc.fingerprint, col_ids, k, strategy, budget)
    hit = _ORIENT_CACHE.get(key)
    if hit is not None:
        return hit
    sub = restrict_class(fc, col_ids)
    graph = build_oig(sub)
    orientation = find_orientation(graph, k, strategy=strategy, budget=budget)
    if len(_ORIENT_CACHE) >= _ORIENT_CACHE_CAP:
        _ORIENT_CACHE.clear()
    _ORIENT_CACHE[key] = (sub, graph, orientation)
    return _ORIENT_CACHE[key]


def _as_pairs(sample):
    pairs = []
    for item in sample:
        if hasattr(item, "instance"):
            pairs.append((item.instance, int(item.label)))
        else:
            x, y = item
            pairs.append((x, int(y)))
    return pairs


@dataclass
class OigPrediction:
    labels: tuple
    max_out_degree: int
    edge_size: int
    strategy: str
    optimal: bool


def one_inclusion_list_predict(fc: FiniteClass, sample, query, k: int,
                               strategy: str = "auto", budget: int = 10**6) -> OigPrediction:
    """Predict a k-list at ``query`` by orienting the class restricted to the sample.

    The restriction always uses the sorted set of involved columns, so every
    leave-one-out rotation of a fixed sample reuses the same orientation.
    """
    pairs = _as_pairs(sample)
    q_col = fc.column_of(query)
    col_ids = sorted({fc.column_of(x) for x, _ in pairs} | {q_col})
    sub, graph, orientation = _oriented_restriction(fc, tuple(col_ids), k, strategy, budget)
    pos = {cid: j for j, cid in enumerate(col_ids)}
    consistent = np.ones(sub.size, dtype=bool)
    for x, y in pairs:
        consistent &= sub.table[:, pos[fc.column_of(x)]] == y
    members = np.nonzero(consistent)[0]
    if members.size == 0:
        raise NotRealizable("no class member is consistent with the sample")
    q_pos = pos[q_col]
    if q_col in {fc.column_of(x) for x, _ in pairs}:
        label = int(sub.table[members[0], q_pos])
        return OigPrediction(labels=(label,), max_out_degree=orientation.max_out_degree,
                             edge_size=int(members.size), strategy=orientation.strategy,
                             optimal=orientation.optimal)
    off = tuple(int(v) for v in np.delete(sub.table[members[0]], q_pos))
    eid = graph.edge_id(q_pos, off)
    if eid is None or set(graph.edges[eid].members) != set(int(v) for v in members):
        raise NotRealizable("revealed sample does not select a single edge")
    chosen = orientation.sigma[eid]
    labels = tuple(sorted({int(sub.table[v, q_pos]) for v in chosen}))
    return OigPrediction(labels=labels, max_out_degree=orientation.max_out_degree,
                         edge_size=len(graph.edges[eid].members),
                         strategy=orientation.strategy, optimal=orientation.optimal)


def oig_list_function(fc: FiniteClass, sample, k: int, strategy: str = "auto",
                      budget: int = 10**6, name: str = "") -> ListFunction:
    """The k-list predictor induced by a fixed sample, as a list function."""
    pairs = tuple(_as_pairs(sample))

    def extend(x):
        return one_inclusion_list_predict(fc, pairs, x, k, strategy=strategy,
                                          budget=budget).labels

    return ListFunction.composed(extend, declared_size=max(1, k),
                                 name=name or f"oig[k={k}]")


# ---------------------------------------------------------------------------
# Greedy cover: a p-list built from q one-inclusion runs, p = k*q.


@dataclass
class CoverRound:
    round: int
    subset: tuple
    coverage: int
    survivors_before: int
    fallback: bool


@dataclass
class CoverResult:
    mu: ListFunction
    record_group: RecordGroup
    q: int
    d: int
    rounds: list  # CoverRound per executed round
    round_mus: list

    @property
    def rounds_run(self) -> int:
        return len(self.rounds)


def _cover_round_mu(fc: FiniteClass, dataset: Dataset, indices, k: int,
                    strategy: str, budget: int) -> ListFunction:
    sample = [dataset.examples[i] for i in indices]
    return oig_list_function(fc, sample, k, strategy=strategy, budget=budget,
                             name=f"cover-round[{len(indices)}]")


def _lists_digest(mu: ListFunction, dataset: Dataset) -> str:
    return stable_digest(tuple(mu(x) for x in dataset.unique_instances))


def _concat_mu(round_mus, declared: int, dataset: Dataset, name: str) -> ListFunction:
    def extend(x):
        return ordered_dedup(y for mu in round_mus for y in mu(x))

    entries = {x: extend(x) for x in dataset.unique_instances}
    return ListFunction.composed(extend, declared_size=declared, entries=entries,
                                 name=name)


def initial_cover(fc: FiniteClass, dataset: Dataset, k: int, d: Optional[int] = None,
                  search_budget: int = 20000, rng: Optional[RandomStream] = None,
                  strategy: str = "auto", orient_budget: int = 10**6) -> CoverResult:
    """Greedily cover the sample with q one-inclusion k-lists, q = ceil((d+1) ln 2m).

    Each round looks for a subset of at most d surviving examples whose
    induced list covers at least 1/(d+1) of the survivors (checked in exact
    integer arithmetic); covered examples are then removed. The search is
    exhaustive over subsets when that fits the budget, otherwise it draws
    seeded random subsets and the fallback is recorded per round. A round
    scores each distinct set of labelled examples once, at each distinct
    surviving instance.
    """
    if d is None:
        d = kds_dimension(fc, k)
    if d < 0:
        raise InvalidParams("dimension d must be non-negative")
    m = dataset.m
    q = max(1, math.ceil((d + 1) * math.log(max(2 * m, 2))))
    rng = rng if rng is not None else RandomStream(0, ("cover",))
    survivors = list(range(m))
    labels = dataset.labels
    slots = []
    rounds = []
    round_mus = []
    for j in range(1, q + 1):
        if not survivors:
            break
        need = len(survivors)
        exhaustive = all(
            math.comb(need, s) <= search_budget for s in range(min(d, need) + 1)
        )
        if exhaustive:
            def subset_iter():
                for s in range(min(d, need), -1, -1):
                    yield from itertools.combinations(survivors, s)
        else:
            def subset_iter():
                gen = rng.child("round", j).generator()
                for _ in range(search_budget):
                    draw = gen.choice(need, size=d, replace=True)
                    yield tuple(sorted({survivors[i] for i in draw}))
        best_cov, best_subset = -1, None
        chosen = None
        # The induced list depends only on the set of labelled examples, so a
        # repeated set covers what its first copy did: it can neither beat
        # best_cov (strict >) nor clear the bar that copy missed.
        scored = set()
        xs = ordered_dedup(dataset.instances[i] for i in survivors)
        for subset in subset_iter():
            key = frozenset(dataset.examples[i] for i in subset)
            if key in scored:
                continue
            scored.add(key)
            mu_s = _cover_round_mu(fc, dataset, subset, k, strategy, orient_budget)
            lists = {x: mu_s(x) for x in xs}
            covered = [i for i in survivors if int(labels[i]) in lists[dataset.instances[i]]]
            if len(covered) > best_cov:
                best_cov, best_subset = len(covered), subset
            if len(covered) * (d + 1) >= need:
                chosen = (subset, mu_s, covered)
                break
        if chosen is None:
            raise SearchExhausted(
                f"cover round {j}: best subset covered {best_cov}/{need} survivors "
                f"(needed {math.ceil(need / (d + 1))}); subset {best_subset}"
            )
        subset, mu_s, covered = chosen
        slots.append(HypothesisSlot(slot=j - 1, indices=subset,
                                    pred_hash=_lists_digest(mu_s, dataset)))
        rounds.append(CoverRound(round=j, subset=tuple(subset), coverage=len(covered),
                                 survivors_before=need, fallback=not exhaustive))
        round_mus.append(mu_s)
        covered_set = set(covered)
        survivors = [i for i in survivors if i not in covered_set]
    if survivors:
        raise SearchExhausted(
            f"{len(survivors)} example(s) uncovered after {q} rounds"
        )
    mu = _concat_mu(round_mus, max(1, k * q), dataset, name=f"cover[p={k * q}]")
    return CoverResult(mu=mu, record_group=RecordGroup(tag="cover", slots=slots),
                       q=q, d=d, rounds=rounds, round_mus=round_mus)


# ---------------------------------------------------------------------------
# The wrong-label game: a consistent (p-1)-list from averaged wrong-label votes.


@dataclass
class WrongLabelResult:
    mu: ListFunction
    record_group: RecordGroup
    p: int
    n_u: int
    ell: int
    game_rounds: list  # {t, coverage, fallback}
    max_true_vote: float
    consistent: bool


def _min_excluded(labels: tuple, p: int) -> int:
    for y in range(p):
        if y not in labels:
            return y
    raise InvalidParams("list already spans all labels")


def _slot_predictions(fc: FiniteClass, sample, uniq, p: int, strategy: str,
                      budget: int):
    """Each unique instance's (p-1)-list under the sample, and its min-excluded label."""
    lists = [one_inclusion_list_predict(fc, sample, x, p - 1, strategy=strategy,
                                        budget=budget).labels for x in uniq]
    return lists, np.array([_min_excluded(lst, p) for lst in lists], dtype=np.int64)


def _wrong_label_vote(fc: FiniteClass, dataset: Dataset, slot_samples, slot_preds, draws,
                      p: int, strategy: str, budget: int):
    """Tally the drawn slots' wrong-label votes; the list drops each instance's plurality.

    Returns the (unique instances x p) vote counts, the plurality label per
    unique instance (ties to the lowest label) and the list function.
    """
    uniq = dataset.unique_instances
    slot_counts = np.bincount(np.asarray(draws, dtype=np.int64), minlength=len(slot_samples))
    vote_counts = np.zeros((len(uniq), p), dtype=np.int64)
    for sid, cnt in enumerate(slot_counts):
        if cnt:
            np.add.at(vote_counts, (np.arange(len(uniq)), slot_preds[sid]), int(cnt))
    argmax_rows = np.argmax(vote_counts, axis=1)
    entries = {
        x: tuple(y for y in range(p) if y != int(argmax_rows[g]))
        for g, x in enumerate(uniq)
    }
    supports = [(sample, cnt) for sample, cnt in zip(slot_samples, slot_counts) if cnt > 0]

    def extend(x):
        votes = np.zeros(p, dtype=np.int64)
        for sample, cnt in supports:
            pred = one_inclusion_list_predict(fc, sample, x, p - 1, strategy=strategy,
                                              budget=budget)
            votes[_min_excluded(pred.labels, p)] += cnt
        top = int(np.argmax(votes))
        return tuple(y for y in range(p) if y != top)

    mu = ListFunction.composed(extend, declared_size=max(1, p - 1), entries=entries,
                               name=f"wrong-label[p={p}]")
    return vote_counts, argmax_rows, mu


def wrong_label_learner(fc: FiniteClass, dataset: Dataset, d: int,
                        rng: Optional[RandomStream] = None, game_iters: int = 16,
                        response_tries: int = 8, strategy: str = "auto",
                        orient_budget: int = 10**6,
                        tag: str = "wrong-label") -> WrongLabelResult:
    """Produce a (p-1)-list over the class's own alphabet that keeps every true label.

    A two-player weight game stands in for the minimax distribution over
    training subsets: the adversary reweights examples their current cover
    misses, the learner answers with a fresh subset drawn from that weight
    vector whose one-inclusion list covers at least 1 - 1/(4p) of the mass
    (best-of-tries fallback recorded). The averaged wrong-label votes over
    ell draws from the answer bag then pin down, per instance, one label that
    cannot be the true one.
    """
    p = len(fc.alphabet)
    if p < 2:
        raise InvalidParams("wrong-label game needs at least two labels")
    m = dataset.m
    uniq = dataset.unique_instances
    gid = dataset.group_ids
    labels = dataset.labels
    rng = rng if rng is not None else RandomStream(0, ("wrong-label",))
    n_u = 4 * p * d
    target = 1.0 - 1.0 / (4.0 * p)
    eta = math.sqrt(math.log(max(m, 2)) / (2.0 * max(game_iters, 1)))
    log_w = np.zeros(m, dtype=np.float64)

    slot_by_key = {}
    slot_samples = []
    slot_indices = []
    slot_preds = []   # per slot: f_U over unique instances
    slot_covers = []  # per slot: bool per example, y_i in mu_U(x_i)
    bag = []
    game_rounds = []

    def preds_for(indices):
        key = tuple(int(i) for i in indices)
        if key in slot_by_key:
            return slot_by_key[key]
        sample = tuple(dataset.examples[i] for i in key)
        lists, preds = _slot_predictions(fc, sample, uniq, p, strategy, orient_budget)
        covers = coverage_mask(dataset, dict(zip(uniq, lists)).get)
        sid = len(slot_samples)
        slot_by_key[key] = sid
        slot_samples.append(sample)
        slot_indices.append(key)
        slot_preds.append(preds)
        slot_covers.append(covers)
        return sid

    for t in range(1, game_iters + 1):
        w = np.exp(log_w - log_w.max())
        dist = w / w.sum()
        best_sid, best_mass = None, -1.0
        hit = False
        for attempt in range(1, response_tries + 1):
            gen = rng.child("game", t, attempt).generator()
            draw = gen.choice(m, size=n_u, replace=True, p=dist) if n_u else np.empty(0, dtype=np.int64)
            sid = preds_for(draw)
            mass = float(dist[slot_covers[sid]].sum())
            if mass > best_mass:
                best_sid, best_mass = sid, mass
            if mass >= target - 1e-12:
                hit = True
                break
        bag.append(best_sid)
        game_rounds.append({"t": t, "coverage": best_mass, "fallback": not hit})
        log_w += eta * (~slot_covers[best_sid]).astype(np.float64)

    ell = math.ceil(8.0 * p * p * math.log(max(2 * m, 2)))
    draw_gen = rng.child("draws").generator()
    draws = [bag[int(i)] for i in draw_gen.integers(len(bag), size=ell)]
    vote_counts, argmax_rows, mu = _wrong_label_vote(fc, dataset, slot_samples, slot_preds,
                                                     draws, p, strategy, orient_budget)
    bad = [i for i in range(m) if int(labels[i]) == int(argmax_rows[gid[i]])]
    max_true_vote = float(
        max(vote_counts[gid[i], int(labels[i])] for i in range(m)) / ell
    )
    if bad:
        raise GameNotConverged(
            f"wrong-label vote hit the true label on {len(bad)} of {m} example(s); "
            f"max true-label vote mass {max_true_vote:.4f} (threshold {1.0 / (2 * p):.4f})"
        )
    slots = [
        HypothesisSlot(slot=sid, indices=slot_indices[sid],
                       pred_hash=stable_digest(tuple(slot_preds[sid].tolist())))
        for sid in range(len(slot_samples))
    ]
    group = RecordGroup(tag=tag, slots=slots, draws=list(map(int, draws)))
    return WrongLabelResult(mu=mu, record_group=group, p=p, n_u=n_u, ell=ell,
                            game_rounds=game_rounds, max_true_vote=max_true_vote,
                            consistent=True)


# ---------------------------------------------------------------------------
# List PAC learning: cover, then peel one wrong label per round until k remain.


@dataclass
class ListPacRound:
    round: int
    p_j: int
    class_rows: int
    max_list_len: int
    max_true_vote: float


@dataclass
class ListPacResult:
    mu: ListFunction
    record: CompressionRecord
    cover: CoverResult
    rounds: list  # ListPacRound per executed round
    k: int
    d: int
    p: int
    q: int
    early_stopped: bool
    consistent_on_train: bool

    @property
    def rounds_run(self) -> int:
        return len(self.rounds)

    @property
    def compression_size(self) -> int:
        return compression_size(self.record)


def _relabel_round(fc: FiniteClass, dataset: Dataset, mu: ListFunction, p_j: int):
    """Project the class and sample through mu: labels become list positions.

    Hypotheses with any off-list cell are dropped; positions index into
    mu(column), so the new alphabet is [p_j] even where lists run short.
    """
    n_alpha = len(fc.alphabet)
    keep = np.ones(fc.size, dtype=bool)
    new_cols = []
    col_lists = {}
    for jc, key in enumerate(fc.columns):
        lst = mu(key)
        col_lists[key] = lst
        pos_map = np.full(n_alpha, -1, dtype=np.int64)
        for pos, y in enumerate(lst):
            pos_map[y] = pos
        mapped = pos_map[fc.table[:, jc]]
        keep &= mapped >= 0
        new_cols.append(mapped)
    if not keep.any():
        raise NotRealizable(
            "no hypothesis stays inside the current lists on every column"
        )
    rows = np.stack(new_cols, axis=1)[keep]
    sub_fc = FiniteClass.from_rows(rows, fc.columns, alphabet=tuple(range(p_j)))
    pairs = []
    for ex in dataset.examples:
        lst = col_lists.get(ex.instance)
        if lst is None:
            lst = mu(ex.instance)
        if ex.label not in lst:
            raise GameNotConverged(
                f"true label {ex.label} fell out of the list at instance {ex.instance!r}"
            )
        pairs.append((ex.instance, lst.index(ex.label)))
    sub_dataset = make_dataset(pairs, alphabet=tuple(range(p_j)))
    return sub_fc, sub_dataset


def _position_filter_mu(prev_mu: ListFunction, tilde_mu: ListFunction, declared: int,
                        dataset: Dataset, name: str) -> ListFunction:
    """Pull a position list back through prev_mu, skipping out-of-range slots."""

    def extend(x):
        lst = prev_mu(x)
        return tuple(lst[pos] for pos in tilde_mu(x) if pos < len(lst))

    entries = {x: extend(x) for x in dataset.unique_instances}
    return ListFunction.composed(extend, declared_size=max(1, declared),
                                 entries=entries, name=name)


def _truncated_mu(mu: ListFunction, k: int, dataset: Dataset, name: str) -> ListFunction:
    def extend(x):
        return mu(x)[:k]

    entries = {x: extend(x) for x in dataset.unique_instances}
    return ListFunction.composed(extend, declared_size=max(1, k), entries=entries,
                                 name=name)


def _check_realizable(fc: FiniteClass, dataset: Dataset):
    cols = fc.column_ids(dataset.instances)
    hits = fc.table[:, cols] == dataset.labels[np.newaxis, :]
    if not bool(hits.all(axis=1).any()):
        raise NotRealizable("no hypothesis labels the whole sample correctly")


def k_list_pac_learn(fc: FiniteClass, dataset: Dataset, k: int, seed: int = 0,
                     d: Optional[int] = None, strategy: str = "auto",
                     orient_budget: int = 10**6, search_budget: int = 20000,
                     game_iters: int = 16, response_tries: int = 8) -> ListPacResult:
    """Learn a k-list for a realizable sample from a finite class.

    Starts from the greedy cover (a k*q-list that contains every training
    label), then repeatedly relabels class and sample into list positions and
    runs the wrong-label game to discard one position per round. After p - k
    rounds at most k candidates remain; training consistency is verified and
    everything needed to replay the run deterministically goes into the
    returned record.
    """
    if k < 1:
        raise InvalidParams(f"list size k must be at least 1, got {k!r}")
    _check_realizable(fc, dataset)
    if d is None:
        d = kds_dimension(fc, k, budget=orient_budget)
    rs = RandomStream(seed, ("listpac",))
    cover = initial_cover(fc, dataset, k, d=d, search_budget=search_budget,
                          rng=rs.child("cover"), strategy=strategy,
                          orient_budget=orient_budget)
    q = cover.q
    p = k * q
    mu = cover.mu
    uniq = dataset.unique_instances
    rounds = []
    groups = [cover.record_group]
    early_stopped = False
    for j in range(1, p - k + 1):
        train_max = max(len(mu(x)) for x in uniq)
        if train_max <= k:
            early_stopped = True
            break
        p_j = p - j + 1
        sub_fc, sub_dataset = _relabel_round(fc, dataset, mu, p_j)
        wl = wrong_label_learner(sub_fc, sub_dataset, d,
                                 rng=rs.child("round", j), game_iters=game_iters,
                                 response_tries=response_tries, strategy=strategy,
                                 orient_budget=orient_budget, tag=f"round:{j}")
        mu = _position_filter_mu(mu, wl.mu, p - j, dataset, name=f"listpac-mu[{j + 1}]")
        groups.append(wl.record_group)
        rounds.append(ListPacRound(round=j, p_j=p_j, class_rows=sub_fc.size,
                                   max_list_len=max(len(mu(x)) for x in uniq),
                                   max_true_vote=wl.max_true_vote))
    final = _truncated_mu(mu, k, dataset, name=f"listpac[k={k}]")
    consistent = bool(coverage_mask(dataset, final).all())
    record = CompressionRecord(
        pipeline="oig-listpac",
        meta={
            "k": k, "d": d, "p": p, "q": q, "m": dataset.m, "seed": seed,
            "strategy": strategy, "orient_budget": orient_budget,
            "search_budget": search_budget, "game_iters": game_iters,
            "response_tries": response_tries, "rounds_run": len(rounds),
            "early_stopped": early_stopped, "class_fingerprint": fc.fingerprint,
            "alphabet_size": len(fc.alphabet), "compression_safe": True,
        },
        groups=groups,
    )
    return ListPacResult(mu=final, record=record, cover=cover, rounds=rounds, k=k,
                         d=d, p=p, q=q, early_stopped=early_stopped,
                         consistent_on_train=consistent)


def replay_list_pac(record: CompressionRecord, dataset: Dataset,
                    finite_class: FiniteClass) -> ListFunction:
    """Rebuild the k-list from a record, the sample, and the class it came from.

    Every replayed hypothesis is re-fingerprinted against the recorded hash;
    any disagreement raises NonDeterministicLearner.
    """
    meta = record.meta
    fc = finite_class
    if fc is None:
        raise InvalidParams("replaying a list PAC record requires the finite class")
    if meta.get("class_fingerprint") != fc.fingerprint:
        raise InvalidParams("record was built from a different finite class")
    k = int(meta["k"])
    p = int(meta["p"])
    q = int(meta["q"])
    strategy = meta.get("strategy", "auto")
    orient_budget = int(meta.get("orient_budget", 10**6))
    cover_slots = record.group("cover").slots
    round_mus = [_cover_round_mu(fc, dataset, tuple(s.indices), k, strategy, orient_budget)
                 for s in cover_slots]
    check_fingerprints(cover_slots, [_lists_digest(mu_s, dataset) for mu_s in round_mus],
                       "cover")
    mu = _concat_mu(round_mus, max(1, k * q), dataset, name=f"cover[p={k * q}]")
    for j in range(1, int(meta["rounds_run"]) + 1):
        group = record.group(f"round:{j}")
        p_j = p - j + 1
        sub_fc, sub_dataset = _relabel_round(fc, dataset, mu, p_j)
        uniq = sub_dataset.unique_instances
        samples = [tuple(sub_dataset.examples[i] for i in s.indices) for s in group.slots]
        preds = [_slot_predictions(sub_fc, sample, uniq, p_j, strategy, orient_budget)[1]
                 for sample in samples]
        check_fingerprints(group.slots, [stable_digest(tuple(v.tolist())) for v in preds],
                           group.tag)
        _, _, tilde = _wrong_label_vote(sub_fc, sub_dataset, samples, preds, group.draws,
                                        p_j, strategy, orient_budget)
        mu = _position_filter_mu(mu, tilde, p - j, dataset, name=f"listpac-mu[{j + 1}]")
    return _truncated_mu(mu, k, dataset, name=f"listpac[k={k}]")
