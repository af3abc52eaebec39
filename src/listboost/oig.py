"""One-inclusion-graph toolkit over finite hypothesis classes.

A finite class is a duplicate-free matrix: rows are hypotheses, columns are
instance keys, cells are labels. The one-inclusion hypergraph, its list
orientations, the shattering dimension built from neighbor counts, and the
list-prediction algorithms on top are all exact, budgeted enumerations meant
for desk-scale inputs (hundreds of rows, around a dozen columns).

Rows are deduplicated and grouped through row keys: one opaque scalar per
row whose sort order is the rows' lexicographic order, so a 1-d np.unique on
the keys orders and groups rows exactly as np.unique(axis=0) would, at a
fraction of its cost. Grouping is batched over directions: one np.unique per
one-inclusion graph and per deletion round of the shattering search, whose
rounds also run a batch of column subsets at once (tables past a fixed cell
count group in several batches). List prediction is batched per sample: the
sample's distinct (column, label) pairs are resolved once, and each distinct
restriction of the class is checked for consistency once, for all the
queries that share it. Orientations are memoized by the restricted table's
content, so each distinct table is oriented once.
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
    RecordGroup,
    check_rebuilt,
    check_record_ids,
    compression_size,
    read_meta,
    slot_group,
)
from .core import (
    Dataset,
    ListFunction,
    RandomStream,
    as_instance_key,
    coverage_mask,
    ordered_dedup,
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
from .hedge import ScoreTable
from .recursive import default_learning_rate
from .weak_learn import WeakHypothesis


_SIGN_BIT = np.uint64(1 << 63)


def _row_keys(table: np.ndarray) -> np.ndarray:
    """One sortable scalar per row; key order is the rows' lexicographic order.

    Each int64 cell becomes its big-endian bytes with the sign bit flipped, so
    byte order is numeric order, and each row's bytes are one np.void.
    """
    if table.shape[1] == 0:
        return np.zeros(table.shape[0], dtype=np.uint8)
    cells = np.ascontiguousarray(table, dtype=np.int64).view(np.uint64) ^ _SIGN_BIT
    return cells.astype(">u8").view(np.dtype((np.void, 8 * table.shape[1]))).ravel()


def _unique_rows(table: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order, as np.unique(table, axis=0)."""
    return table[np.unique(_row_keys(table), return_index=True)[1]]


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
        if np.unique(_row_keys(tbl)).size != tbl.shape[0]:
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

    def columns_at(self, keys: tuple) -> np.ndarray:
        """The column of each key, as a read-only int64 array.

        ``keys`` is a dataset's key table, or its distinct instances. The
        columns are kept for the last tuple asked; the memo holds that tuple,
        so its id is not reused. A list, or a lookup that fails, is never kept.
        """
        keys = tuple(keys)  # the same object when it is a tuple
        if self.__dict__.get("_key_table") is not keys:
            cols = np.fromiter(map(self.column_of, keys), dtype=np.int64, count=len(keys))
            cols.setflags(write=False)
            object.__setattr__(self, "_key_columns", cols)
            object.__setattr__(self, "_key_table", keys)
        return self._key_columns

    def agreement(self, sample) -> np.ndarray:
        """How many examples of the Dataset ``sample`` each row labels correctly."""
        cols = self.columns_at(sample.key_table)[sample.key_ids]
        return (self.table[:, cols] == sample.labels).sum(axis=1)

    @classmethod
    def from_rows(cls, rows, columns, alphabet=None) -> "FiniteClass":
        tbl = np.asarray(rows, dtype=np.int64)
        if tbl.ndim == 2:
            tbl = _unique_rows(tbl)
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
        fh.write(json.dumps(fc.to_json_dict()) + "\n")


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


# The most int64 cells one stacked copy in _direction_groups may hold; a wider
# table is grouped in several batches of directions.
_GROUP_CELLS = 1 << 20


def _direction_groups(table: np.ndarray, tags=None):
    """Group the rows that agree off column i, for every direction i at once.

    Copy i of the table has column i blanked and tag * n + i prefixed, so one
    np.unique over the stacked copies' row keys groups every direction. Returns
    ``(inverse, counts)``: ``inverse[i, v]`` is row v's group in direction i,
    ``counts[g]`` the size of group g. Rows only group with rows of the same
    tag (default: all one tag). Groups are numbered direction-major within each
    batch of directions, and by the off pattern's lexicographic order within a
    direction and tag.
    """
    r, n = table.shape
    head = 0 if tags is None else np.asarray(tags, dtype=np.int64) * n
    per_batch = max(1, _GROUP_CELLS // (r * (n + 1)))
    inverse = np.empty((n, r), dtype=np.int64)
    counts = []
    n_groups = 0
    for lo in range(0, n, per_batch):
        dirs = np.arange(lo, min(n, lo + per_batch))
        stack = np.empty((dirs.size, r, n + 1), dtype=np.int64)
        stack[:, :, 0] = head + dirs[:, np.newaxis]
        stack[:, :, 1:] = table
        stack[np.arange(dirs.size), :, dirs + 1] = 0
        _, inv, cnt = np.unique(_row_keys(stack.reshape(-1, n + 1)),
                                return_inverse=True, return_counts=True)
        inverse[dirs] = inv.reshape(dirs.size, r) + n_groups
        counts.append(cnt)
        n_groups += cnt.size
    return inverse, np.concatenate(counts)


def build_oig(fc: FiniteClass) -> OneInclusionGraph:
    """Group rows by (direction, off-coordinate pattern); singletons included.

    Edges are direction-major, in the off patterns' lexicographic order, with
    members in row order; vertex v's incident edges are its group per direction.
    """
    inverse, counts = _direction_groups(fc.table)
    directions, members = np.divmod(np.argsort(inverse, axis=None, kind="stable"), fc.size)
    ends = np.cumsum(counts)
    starts = ends - counts
    rows = fc.table.tolist()
    members = members.tolist()
    edges = []
    for i, start, end in zip(directions[starts].tolist(), starts.tolist(), ends.tolist()):
        first = rows[members[start]]
        edges.append(Edge(direction=i, off=tuple(first[:i] + first[i + 1:]),
                          members=tuple(members[start:end])))
    return OneInclusionGraph(fc=fc, edges=edges, incident=tuple(map(tuple, inverse.T.tolist())))


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
    """Peel the minimum-degree vertex, admitting it into edges with spare capacity.

    deg[v] counts v's incident edges that still have more than k alive
    members; a peeled vertex's entry becomes infinite, so the first minimum
    is the least-degree alive vertex, ties to the lowest.
    """
    alive_sizes = [len(e.members) for e in graph.edges]
    deg = [sum(1 for eid in ids if alive_sizes[eid] > k) for ids in graph.incident]
    chosen = [[] for _ in graph.edges]
    for _ in range(graph.n_vertices):
        v = deg.index(min(deg))
        deg[v] = math.inf
        for eid in graph.incident[v]:
            if len(chosen[eid]) < k:
                chosen[eid].append(v)
            alive_sizes[eid] -= 1
            if alive_sizes[eid] == k:
                for u in graph.edges[eid].members:
                    deg[u] -= 1
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


def _shatter_core(rows: np.ndarray, k: int, tags=None) -> int:
    """Size of the largest sub-family where every row has >= k neighbors per direction.

    Each deletion round groups every direction at once. With ``tags`` (one
    non-negative int per row) each tag's rows are a family of their own, and
    the size is that of the lowest tag whose family stops shrinking non-empty.
    """
    cur = rows
    tags = np.zeros(rows.shape[0], dtype=np.int64) if tags is None else tags
    while cur.shape[0]:
        inverse, counts = _direction_groups(cur, tags)
        keep = (counts[inverse] > k).all(axis=0)
        sizes = np.bincount(tags)
        lost = np.bincount(tags[~keep], minlength=sizes.size)
        stable = np.flatnonzero((sizes > 0) & (lost == 0))
        if stable.size:
            return int(sizes[stable[0]])
        cur, tags = cur[keep], tags[keep]
    return 0


def _any_shattered(table: np.ndarray, subsets: list, k: int) -> bool:
    """Whether any of the equal-size column subsets is k-shattered.

    The subsets' projections are stacked with the subset id as the tag,
    deduplicated per subset, and run through one batched deletion.
    """
    d = len(subsets[0])
    tags = np.repeat(np.arange(len(subsets), dtype=np.int64), table.shape[0])
    proj = table[:, subsets].transpose(1, 0, 2).reshape(-1, d)
    rows = _unique_rows(np.column_stack([tags, proj]))
    tags, rows = rows[:, 0], rows[:, 1:]
    big = np.bincount(tags)[tags] >= (k + 1) ** d
    return _shatter_core(rows[big], k, tags[big]) > 0


def kds_dimension(fc: FiniteClass, k: int, budget: int = 10**6) -> int:
    """The largest d such that some d columns are k-shattered by a witness family.

    A witness family needs every member to have at least k same-edge neighbors
    in every direction; iterated deletion of deficient rows finds the maximal
    witness, and a non-empty fixed point certifies shattering. Projecting a
    witness onto fewer columns keeps k + 1 labels per edge, so subsets of a
    shattered set are shattered: sizes are searched upward, up to the first
    one with no shattered subset, and ``budget`` caps each size's subsets.
    A size's subsets are examined in doubling batches (1, 2, 4, ...), each
    batch in one deletion, so a size whose first subset is shattered examines
    only that one; batches stop growing at about _GROUP_CELLS stacked cells.
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
        subsets = itertools.combinations(range(n), d)
        width, widest = 1, max(1, _GROUP_CELLS // (size * d * (d + 1)))
        while batch := list(itertools.islice(subsets, width)):
            if _any_shattered(fc.table, batch, k):
                break
            width = min(2 * width, widest)
        else:
            return d - 1
    return d_max


# ---------------------------------------------------------------------------
# Algorithm: one-inclusion list prediction.


_ORIENT_CACHE: dict = {}
_ORIENT_CACHE_CAP = 20000


def _oriented_restriction(fc: FiniteClass, col_ids: tuple, k: int, strategy: str,
                          budget: int):
    """``(sub, graph, orientation)`` for ``fc`` restricted to ``col_ids``.

    ``sub`` is the restricted class, its columns keyed by position in
    ``col_ids``; ``graph`` is its one-inclusion graph and ``orientation`` the
    graph's k-list orientation. A graph and its orientation are functions of
    the table alone, and equal restricted tables come out of _unique_rows in
    the same lexicographic row order, so one entry per distinct table (and
    declared alphabet) serves every restriction that yields it, from any
    columns of any class. The memo is looked up by the restriction's columns
    first and by the table's content on a miss; only a content miss
    validates, builds and orients. A raised error (BudgetExceeded) is never
    stored.
    """
    key = (fc.fingerprint, col_ids, k, strategy, budget)
    hit = _ORIENT_CACHE.get(key)
    if hit is None:
        table = _unique_rows(fc.table[:, col_ids])
        content = (table.shape, table.tobytes(), fc.alphabet, k, strategy, budget)
        hit = _ORIENT_CACHE.get(content)
        if hit is None:
            sub = FiniteClass(table=table, columns=tuple(range(len(col_ids))),
                              alphabet=fc.alphabet)
            graph = build_oig(sub)
            hit = (sub, graph, find_orientation(graph, k, strategy=strategy, budget=budget))
        if len(_ORIENT_CACHE) >= _ORIENT_CACHE_CAP - 1:
            _ORIENT_CACHE.clear()
        _ORIENT_CACHE[key] = _ORIENT_CACHE[content] = hit
    return hit


@dataclass(frozen=True)
class OigPrediction:
    labels: tuple
    max_out_degree: int
    edge_size: int
    strategy: str
    optimal: bool


def one_inclusion_lists(fc: FiniteClass, sample: Dataset, queries, k: int,
                        strategy: str = "auto", budget: int = 10**6) -> list:
    """``one_inclusion_list_predict`` at each query in turn, doing the sample's work once.

    The sample's distinct (column, label) pairs are resolved once, and each
    distinct restriction is oriented and masked for consistency once: every
    query inside the sample's columns shares the restriction to those columns.
    An error is raised at the query where the one-query loop would raise it.
    """
    revealed = None  # the sample's sorted distinct (column, label) pairs
    restrictions = {}  # col_ids -> (sub, graph, orientation, pos, consistent members)
    preds = {}  # query column -> OigPrediction
    out = []
    for query in queries:
        q_col = fc.column_of(query)
        if q_col in preds:
            out.append(preds[q_col])
            continue
        if revealed is None:
            cols = fc.columns_at(sample.key_table)[sample.key_ids]
            revealed = sorted(set(zip(cols.tolist(), sample.labels.tolist())))
            seen = {c for c, _ in revealed}
        col_ids = tuple(sorted(seen | {q_col}))
        if col_ids not in restrictions:
            sub, graph, orientation = _oriented_restriction(fc, col_ids, k, strategy, budget)
            pos = {cid: j for j, cid in enumerate(col_ids)}
            agree = sub.table[:, [pos[c] for c, _ in revealed]] == [y for _, y in revealed]
            restrictions[col_ids] = (sub, graph, orientation, pos,
                                     np.flatnonzero(agree.all(axis=1)))
        sub, graph, orientation, pos, members = restrictions[col_ids]
        if members.size == 0:
            raise NotRealizable("no class member is consistent with the sample")
        q_pos = pos[q_col]
        if q_col in seen:
            labels, edge_size = (int(sub.table[members[0], q_pos]),), int(members.size)
        else:
            # the consistent rows differ only at the query: members[0]'s edge there
            eid = graph.incident[members[0]][q_pos]
            labels = tuple(sorted({int(sub.table[v, q_pos]) for v in orientation.sigma[eid]}))
            edge_size = len(graph.edges[eid].members)
        preds[q_col] = OigPrediction(labels=labels, max_out_degree=orientation.max_out_degree,
                                     edge_size=edge_size, strategy=orientation.strategy,
                                     optimal=orientation.optimal)
        out.append(preds[q_col])
    return out


def one_inclusion_list_predict(fc: FiniteClass, sample: Dataset, query, k: int,
                               strategy: str = "auto", budget: int = 10**6) -> OigPrediction:
    """Predict a k-list at ``query`` by orienting the class restricted to the sample.

    The restriction always uses the sorted set of involved columns, so every
    leave-one-out rotation of a fixed sample reuses the same orientation.
    """
    return one_inclusion_lists(fc, sample, [query], k, strategy, budget)[0]


def oig_list_function(fc: FiniteClass, sample: Dataset, k: int, strategy: str = "auto",
                      budget: int = 10**6, name: str = "") -> ListFunction:
    """The k-list predictor induced by a fixed sample, as a list function."""

    def extend(x):
        return one_inclusion_list_predict(fc, sample, x, k, strategy=strategy,
                                          budget=budget).labels

    return ListFunction.composed(extend, declared_size=max(1, k),
                                 name=name or f"oig[k={k}]")


# ---------------------------------------------------------------------------
# Greedy cover: a p-list built from q one-inclusion runs, p = k*q.


@dataclass
class CoverRound:
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

    @property
    def rounds_run(self) -> int:
        return len(self.rounds)


def _cover_size(d: int, m: int) -> int:
    """The cover's round budget q = ceil((d+1) ln 2m), at least 1."""
    return max(1, math.ceil((d + 1) * math.log(max(2 * m, 2))))


def _cover_loop(fc: FiniteClass, dataset: Dataset, k: int, d: int, q: int, candidates,
                strategy: str, orient_budget: int, recorded=()) -> CoverResult:
    """Cover the sample in at most q rounds from ``candidates(j, survivors)``.

    That gives round j's subsets and whether they are a fallback search. A
    round keeps the first subset whose list covers at least 1/(d+1) of the
    survivors (exact integers), scoring each distinct labelled set once on a
    table at the survivors' distinct instances; the kept table is completed
    on every distinct instance for the slot digest and the concatenated list.
    Replay passes the ``recorded`` slots to check the digests against.
    """
    uniq = dataset.unique_instances
    key_ids, labels = dataset.key_ids.tolist(), dataset.labels.tolist()
    survivors = list(range(dataset.m))
    rows, rounds, round_mus = [], [], []
    for j in range(1, q + 1):
        if not survivors:
            break
        need = len(survivors)
        subsets, fallback = candidates(j, survivors)
        alive = dataset.subset(survivors)
        xs = alive.unique_instances
        best_cov, best_subset = -1, None
        # The induced list depends only on the set of (key id, label) pairs, so
        # a repeated set covers what its first copy did: it can neither beat
        # best_cov (strict >) nor clear the bar that copy missed.
        scored = set()
        for subset in subsets:
            labelled = frozenset((key_ids[i], labels[i]) for i in subset)
            if labelled in scored:
                continue
            scored.add(labelled)
            sample = dataset.subset(subset)
            preds = one_inclusion_lists(fc, sample, xs, k, strategy, orient_budget)
            table = {x: pred.labels for x, pred in zip(xs, preds)}
            covered = coverage_mask(alive, table.__getitem__)
            n_covered = int(covered.sum())
            if n_covered > best_cov:
                best_cov, best_subset = n_covered, subset
            if n_covered * (d + 1) >= need:
                break
        else:
            raise SearchExhausted(
                f"cover round {j}: best subset covered {best_cov}/{need} survivors "
                f"(needed {math.ceil(need / (d + 1))}); subset {best_subset}"
            )
        rest = [x for x in uniq if x not in table]
        if rest:
            preds = one_inclusion_lists(fc, sample, rest, k, strategy, orient_budget)
            table.update((x, pred.labels) for x, pred in zip(rest, preds))
        table = {x: table[x] for x in uniq}
        rows.append(tuple(table.values()))
        rounds.append(CoverRound(subset=tuple(subset), coverage=n_covered,
                                 survivors_before=need, fallback=fallback))
        lists_at = oig_list_function(fc, sample, k, strategy=strategy, budget=orient_budget)
        round_mus.append(ListFunction.composed(lists_at, declared_size=max(1, k), entries=table,
                                               name=f"cover-round[{len(subset)}]"))
        survivors = [i for i, hit in zip(survivors, covered.tolist()) if not hit]
    if survivors:
        raise SearchExhausted(
            f"{len(survivors)} example(s) uncovered after {q} rounds"
        )
    group = slot_group("cover", [r.subset for r in rounds], rows, recorded)
    mu = ListFunction.tabled(lambda x: ordered_dedup(y for mu_s in round_mus for y in mu_s(x)),
                             dataset.unique_instances, k * q, f"cover[p={k * q}]")
    return CoverResult(mu=mu, record_group=group, q=q, d=d, rounds=rounds)


def initial_cover(fc: FiniteClass, dataset: Dataset, k: int, d: Optional[int] = None,
                  search_budget: int = 20000, rng: Optional[RandomStream] = None,
                  strategy: str = "auto", orient_budget: int = 10**6) -> CoverResult:
    """Greedily cover the sample with q one-inclusion k-lists, q = ceil((d+1) ln 2m).

    Each round looks for a subset of at most d surviving examples whose
    induced list covers at least 1/(d+1) of the survivors; covered examples
    are then removed. The search is exhaustive over subsets when that fits
    the budget, otherwise it draws seeded random subsets and the fallback is
    recorded per round.
    """
    if d is None:
        d = kds_dimension(fc, k)
    if d < 0:
        raise InvalidParams("dimension d must be non-negative")
    rng = rng if rng is not None else RandomStream(0, ("cover",))

    def candidates(j, survivors):
        need = len(survivors)
        if all(math.comb(need, s) <= search_budget for s in range(min(d, need) + 1)):
            return (c for s in range(min(d, need), -1, -1)
                    for c in itertools.combinations(survivors, s)), False
        gen = rng.child("round", j).generator()
        return (tuple(sorted({survivors[i] for i in gen.choice(need, size=d, replace=True)}))
                for _ in range(search_budget)), True

    return _cover_loop(fc, dataset, k, d, _cover_size(d, dataset.m), candidates, strategy,
                       orient_budget)


# ---------------------------------------------------------------------------
# The wrong-label game: a consistent (p-1)-list from averaged wrong-label votes.

# The game's rounds, and the subsets each round draws at most; list-PAC records
# keep both in their meta. A round votes with all GAME_ITERS responses, its draws.
GAME_ITERS = 16
RESPONSE_TRIES = 8


@dataclass
class WrongLabelResult:
    mu: ListFunction
    record_group: RecordGroup
    p: int
    n_u: int
    max_true_vote: float


def _min_excluded(labels: tuple, p: int) -> int:
    for y in range(p):
        if y not in labels:
            return y
    raise InvalidParams("list already spans all labels")


def _slot_predictions(fc: FiniteClass, dataset: Dataset, indices, p: int, strategy: str,
                      budget: int):
    """Each unique instance's (p-1)-list under the slot, and its min-excluded label."""
    lists = [pred.labels for pred in one_inclusion_lists(fc, dataset.subset(indices),
                                                         dataset.unique_instances,
                                                         p - 1, strategy, budget)]
    return lists, np.array([_min_excluded(lst, p) for lst in lists], dtype=np.int64)


def _guesser(fc: FiniteClass, dataset: Dataset, indices, p: int, strategy: str,
             budget: int) -> WeakHypothesis:
    """A slot's wrong-label guess: the least label its one-inclusion (p-1)-list leaves out."""
    sample = dataset.subset(indices)

    def predict(x):
        pred = one_inclusion_list_predict(fc, sample, x, p - 1, strategy=strategy, budget=budget)
        return _min_excluded(pred.labels, p)

    return WeakHypothesis(predict)


def _wrong_label_vote(fc: FiniteClass, dataset: Dataset, slot_indices, slot_preds, draws,
                      p: int, strategy: str, budget: int):
    """Count the drawn slots' wrong-label guesses; the list drops each instance's plurality.

    The guesses go into a ``hedge.ScoreTable``, each slot's counted once per
    draw: from the slots' predictions on the sample, and elsewhere by asking
    each drawn slot's guesser once. The plurality (ties to the lowest label) must
    miss every training label, else GameNotConverged. Returns the largest
    true-label vote mass and the list function.
    """
    guessers = [_guesser(fc, dataset, ix, p, strategy, budget) for ix in slot_indices]
    rows = np.stack(slot_preds)[:, dataset.group_ids]
    score = ScoreTable(guessers, draws, dataset, rows)
    max_true_vote = float((score.multiplicity @ (rows == dataset.labels)).max() / len(draws))

    def extend(x):
        top = int(score.counts(x).argmax())
        return tuple(range(top)) + tuple(range(top + 1, p))

    mu = ListFunction.tabled(extend, dataset.unique_instances, p - 1, f"wrong-label[p={p}]")
    bad = dataset.m - int(coverage_mask(dataset, mu).sum())
    if bad:
        raise GameNotConverged(
            f"wrong-label vote hit the true label on {bad} of {dataset.m} example(s); "
            f"max true-label vote mass {max_true_vote:.4f} (threshold {1.0 / (2 * p):.4f})"
        )
    return max_true_vote, mu


def wrong_label_learner(fc: FiniteClass, dataset: Dataset, d: int,
                        rng: Optional[RandomStream] = None, strategy: str = "auto",
                        orient_budget: int = 10**6,
                        tag: str = "wrong-label") -> WrongLabelResult:
    """Produce a (p-1)-list over the class's own alphabet that keeps every true label.

    A two-player weight game of GAME_ITERS rounds stands in for the minimax
    distribution over training subsets: the adversary reweights examples their
    current cover misses, the learner answers with a fresh subset drawn from
    that weight vector whose one-inclusion list covers at least 1 - 1/(4p) of
    the mass (best of RESPONSE_TRIES draws, recorded). The wrong-label votes
    of the bag of GAME_ITERS answers, recorded as the ``draws`` and counted in
    a ``hedge.ScoreTable``, then pin down, per instance, one label that cannot
    be the true one: the list drops the plurality.
    """
    p = len(fc.alphabet)
    if p < 2:
        raise InvalidParams("wrong-label game needs at least two labels")
    m = dataset.m
    uniq = dataset.unique_instances
    rng = rng if rng is not None else RandomStream(0, ("wrong-label",))
    n_u = 4 * p * d
    target = 1.0 - 1.0 / (4.0 * p)
    eta = default_learning_rate(m, GAME_ITERS)
    log_w = np.zeros(m, dtype=np.float64)

    slot_by_key = {}  # per slot: its example indices -> its slot id
    slot_preds = []   # per slot: f_U over unique instances
    slot_covers = []  # per slot: bool per example, y_i in mu_U(x_i)
    bag = []

    def preds_for(indices):
        key = tuple(int(i) for i in indices)
        if key not in slot_by_key:
            lists, preds = _slot_predictions(fc, dataset, key, p, strategy, orient_budget)
            slot_by_key[key] = len(slot_by_key)
            slot_preds.append(preds)
            slot_covers.append(coverage_mask(dataset, dict(zip(uniq, lists)).get))
        return slot_by_key[key]

    for t in range(1, GAME_ITERS + 1):
        w = np.exp(log_w - log_w.max())
        dist = w / w.sum()
        best_sid, best_mass = None, -1.0
        for attempt in range(1, RESPONSE_TRIES + 1):
            gen = rng.child("game", t, attempt).generator()
            draw = gen.choice(m, size=n_u, replace=True, p=dist) if n_u else np.empty(0, dtype=np.int64)
            sid = preds_for(draw)
            mass = float(dist[slot_covers[sid]].sum())
            if mass > best_mass:
                best_sid, best_mass = sid, mass
            if mass >= target - 1e-12:
                break
        bag.append(best_sid)
        log_w += eta * (~slot_covers[best_sid]).astype(np.float64)

    slot_indices = list(slot_by_key)
    max_true_vote, mu = _wrong_label_vote(fc, dataset, slot_indices, slot_preds, bag, p,
                                          strategy, orient_budget)
    group = slot_group(tag, slot_indices, slot_preds, draws=bag)
    return WrongLabelResult(mu=mu, record_group=group, p=p, n_u=n_u,
                            max_true_vote=max_true_vote)


# ---------------------------------------------------------------------------
# List PAC learning: cover, then peel one wrong label per round until k remain.


@dataclass
class ListPacRound:
    p_j: int
    max_true_vote: float


@dataclass
class ListPacResult:
    mu: ListFunction
    record: CompressionRecord
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
    pos_map = np.full((fc.n, len(fc.alphabet)), -1, dtype=np.int64)  # (column, label)
    for jc, key in enumerate(fc.columns):
        lst = mu(key)
        pos_map[jc, list(lst)] = np.arange(len(lst))
    mapped = pos_map[np.arange(fc.n), fc.table]
    keep = (mapped >= 0).all(axis=1)
    if not keep.any():
        raise NotRealizable(
            "no hypothesis stays inside the current lists on every column"
        )
    sub_fc = FiniteClass.from_rows(mapped[keep], fc.columns, alphabet=tuple(range(p_j)))
    # every sample instance is a class column: the sample passed _check_realizable
    pos = pos_map[fc.columns_at(dataset.key_table)[dataset.key_ids], dataset.labels]
    if (pos < 0).any():
        i = int(np.argmax(pos < 0))
        raise GameNotConverged(f"true label {dataset.labels[i]} fell out of the list at "
                               f"instance {dataset.instances[i]!r}")
    return sub_fc, Dataset(dataset.key_table, dataset.key_ids, pos, range(p_j))


def _pulled_back(prev_mu: ListFunction, tilde_mu: ListFunction):
    """x -> the entries of prev_mu(x) at the positions tilde_mu(x) keeps, in range."""

    def extend(x):
        lst = prev_mu(x)
        return tuple(lst[pos] for pos in tilde_mu(x) if pos < len(lst))

    return extend


def _check_realizable(fc: FiniteClass, dataset: Dataset):
    if not (fc.agreement(dataset) == dataset.m).any():
        raise NotRealizable("no hypothesis labels the whole sample correctly")


# The record meta keys that are run parameters, in record order after "m".
_LISTPAC_PARAMS = ("seed", "strategy", "orient_budget", "search_budget")


def _list_pac_core(fc: FiniteClass, dataset: Dataset, k: int, d: Optional[int],
                   params: dict, cover_runner, round_runner) -> ListPacResult:
    """The list PAC run that training and replay share.

    ``cover_runner(d, q)`` gives the CoverResult and ``round_runner(j, sub_fc,
    sub_dataset, d)`` round j's position list, record group and largest
    true-label vote mass: training searches for them, replay rebuilds them.
    All else (q, p, stop rule, relabelling, filters, record) is done here.
    """
    if k < 1:
        raise InvalidParams(f"list size k must be at least 1, got {k!r}")
    _check_realizable(fc, dataset)
    if d is None:
        d = kds_dimension(fc, k, budget=params["orient_budget"])
    q = _cover_size(d, dataset.m)
    p = k * q
    cover = cover_runner(d, q)
    mu = cover.mu
    rounds = []
    groups = [cover.record_group]
    for j in range(1, p - k + 1):
        if max(len(mu(x)) for x in dataset.unique_instances) <= k:
            break
        p_j = p - j + 1
        sub_fc, sub_dataset = _relabel_round(fc, dataset, mu, p_j)
        tilde, group, max_true_vote = round_runner(j, sub_fc, sub_dataset, d)
        mu = ListFunction.tabled(_pulled_back(mu, tilde), dataset.unique_instances, p - j,
                                 f"listpac-mu[{j + 1}]")
        groups.append(group)
        rounds.append(ListPacRound(p_j=p_j, max_true_vote=max_true_vote))
    early_stopped = len(rounds) < p - k
    final = ListFunction.tabled(lambda x: mu(x)[:k], dataset.unique_instances, k,
                                f"listpac[k={k}]")
    consistent = bool(coverage_mask(dataset, final).all())
    record = CompressionRecord(
        pipeline="oig-listpac",
        meta={
            "k": k, "d": d, "p": p, "q": q, "m": dataset.m, **params,
            "game_iters": GAME_ITERS, "response_tries": RESPONSE_TRIES,
            "rounds_run": len(rounds), "early_stopped": early_stopped,
            "class_fingerprint": fc.fingerprint, "alphabet_size": len(fc.alphabet),
            "compression_safe": True,
        },
        groups=groups,
    )
    return ListPacResult(mu=final, record=record, rounds=rounds, k=k,
                         d=d, p=p, q=q, early_stopped=early_stopped,
                         consistent_on_train=consistent)


def k_list_pac_learn(fc: FiniteClass, dataset: Dataset, k: int, seed: int = 0,
                     d: Optional[int] = None, strategy: str = "auto",
                     orient_budget: int = 10**6, search_budget: int = 20000) -> ListPacResult:
    """Learn a k-list for a realizable sample from a finite class.

    Starts from the greedy cover (a k*q-list that contains every training
    label), then repeatedly relabels class and sample into list positions and
    runs the wrong-label game to discard one position per round. After p - k
    rounds at most k candidates remain; training consistency is verified and
    everything needed to replay the run deterministically goes into the
    returned record.
    """
    rs = RandomStream(seed, ("listpac",))

    def cover_runner(d, q):
        return initial_cover(fc, dataset, k, d=d, search_budget=search_budget,
                             rng=rs.child("cover"), strategy=strategy,
                             orient_budget=orient_budget)

    def round_runner(j, sub_fc, sub_dataset, d):
        wl = wrong_label_learner(sub_fc, sub_dataset, d, rng=rs.child("round", j),
                                 strategy=strategy, orient_budget=orient_budget,
                                 tag=f"round:{j}")
        return wl.mu, wl.record_group, wl.max_true_vote

    params = dict(seed=seed, strategy=strategy, orient_budget=orient_budget,
                  search_budget=search_budget)
    return _list_pac_core(fc, dataset, k, d, params, cover_runner, round_runner)


def replay_list_pac(record: CompressionRecord, dataset: Dataset,
                    finite_class: FiniteClass) -> ListFunction:
    """Rebuild the k-list by running k_list_pac_learn's code on the record's slots.

    Every replayed hypothesis is re-fingerprinted (NonDeterministicLearner on
    a mismatch). q, p and the number of rounds are derived, and the game's
    constants rebuilt, not read; the record is held to the replay contract of
    ``compression``.
    """
    fc = finite_class
    if fc is None:
        raise InvalidParams("replaying a list PAC record requires the finite class")
    if record.meta.get("class_fingerprint") != fc.fingerprint:
        raise InvalidParams("record was built from a different finite class")
    meta = read_meta(record, ("k", "d") + _LISTPAC_PARAMS)
    check_record_ids(record, dataset.m)
    k = int(meta["k"])
    strategy, orient_budget = meta["strategy"], meta["orient_budget"]

    def cover_runner(d, q):
        slots = record.group("cover").slots
        return _cover_loop(fc, dataset, k, d, q,
                           lambda j, _: ([s.indices for s in slots[j - 1:j]], False),
                           strategy, orient_budget, slots)

    def round_runner(j, sub_fc, sub_dataset, d):
        recorded = record.group(f"round:{j}")
        if not recorded.draws:
            raise InvalidParams(f"group {recorded.tag!r} has no draws to vote with")
        p_j = len(sub_fc.alphabet)
        indices = [s.indices for s in recorded.slots]
        preds = [_slot_predictions(sub_fc, sub_dataset, idx, p_j, strategy, orient_budget)[1]
                 for idx in indices]
        group = slot_group(recorded.tag, indices, preds, recorded.slots, recorded.draws)
        max_true_vote, tilde = _wrong_label_vote(sub_fc, sub_dataset, indices, preds,
                                                 recorded.draws, p_j, strategy, orient_budget)
        return tilde, group, max_true_vote

    rebuilt = _list_pac_core(fc, dataset, k, int(meta["d"]),
                             {key: meta[key] for key in _LISTPAC_PARAMS},
                             cover_runner, round_runner)
    check_rebuilt(record, rebuilt.record)
    return rebuilt.mu
