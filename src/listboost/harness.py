"""Synthetic data, experiment orchestration, and report emission.

Everything here is batch-oriented: a config names a dataset recipe, a
learner, and a pipeline; each seed runs to a plain-dict report row, rows are
assembled in seed order, and the report carries a digest over its
deterministic payload (wall-clock fields are excluded) so re-runs with the
same config and seeds can be compared byte for byte.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .compression import compression_size, generalization_bound
from .core import (
    Dataset,
    ListFunction,
    RandomStream,
    as_instance_key,
    make_dataset,
)
from .errors import (
    InvalidParams,
    ListboostError,
    ListLookupError,
    RTooLarge,
    UnknownInstance,
)
from .hedge import eliminate_min_label, run_hedge
from .oig import FiniteClass, k_list_pac_learn
from .recursive import BoostConfig, adaptive_gamma, default_learning_rate, recursive_boost
from .weak_learn import (
    BrgAuditLog,
    CalibratedBrgOracle,
    ConstantLearner,
    ErmFiniteLearner,
    StumpLearner,
    TooWeakLearner,
    WeakLearnerSpec,
)

DATA_FORMAT = "listboost-data/1"
REPORT_SCHEMA = "listboost-report/1"
BUDGET_ENV = "LISTBOOST_BUDGET"

_DEFAULT_BUDGETS = {"orient": 10**6, "search": 20000}


def default_budget(kind: str) -> int:
    """Budget cap for enumeration work; LISTBOOST_BUDGET lowers both kinds."""
    try:
        base = _DEFAULT_BUDGETS[kind]
    except KeyError:
        raise InvalidParams(f"unknown budget kind {kind!r}") from None
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return base
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidParams(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InvalidParams(f"{BUDGET_ENV} must be positive, got {cap}")
    return min(base, cap)


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass
class GenResult:
    dataset: Dataset
    finite_class: object = None  # FiniteClass for planted kinds, else None
    target_row: int = -1
    flipped: int = 0


def _planted_class(n_labels: int, class_size: int, n_instances: int,
                   gen: np.random.Generator) -> FiniteClass:
    if n_labels < 2:
        raise InvalidParams("planted classes need at least 2 labels")
    if class_size < 1 or n_instances < 1:
        raise InvalidParams("class size and instance count must be positive")
    if class_size > n_labels**n_instances:
        raise InvalidParams(
            f"cannot fit {class_size} distinct rows into {n_labels}^{n_instances} tables"
        )
    rows, seen = [], set()
    while len(rows) < class_size:
        row = tuple(int(v) for v in gen.integers(0, n_labels, size=n_instances))
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return FiniteClass(table=np.array(rows, dtype=np.int64),
                       columns=tuple(range(n_instances)),
                       alphabet=tuple(range(n_labels)))


def gen_planted(m: int, n_labels: int, class_size: int, n_instances: int,
                rng: RandomStream) -> GenResult:
    """A random finite class plus m draws labeled by its first row."""
    if m < 1:
        raise InvalidParams("m must be positive")
    gen = rng.child("planted").generator()
    fc = _planted_class(n_labels, class_size, n_instances, gen)
    xs = gen.integers(0, fc.n, size=m)
    pairs = [(int(x), int(fc.table[0, int(x)])) for x in xs]
    ds = make_dataset(pairs, alphabet=fc.alphabet)
    return GenResult(dataset=ds, finite_class=fc, target_row=0)


def gen_counterexample(multiplicities=1) -> GenResult:
    """The three-point gadget {(a,0),(b,1),(c,2)} with per-point multiplicities."""
    if isinstance(multiplicities, int):
        mults = (multiplicities,) * 3
    else:
        mults = tuple(int(v) for v in multiplicities)
    if len(mults) != 3 or any(v < 1 for v in mults):
        raise InvalidParams(f"multiplicities must be 3 positive counts, got {mults!r}")
    pairs = []
    for (x, y), cnt in zip((("a", 0), ("b", 1), ("c", 2)), mults):
        pairs.extend([(x, y)] * cnt)
    return GenResult(dataset=make_dataset(pairs, alphabet=(0, 1, 2)))


def gen_noisy(m: int, n_labels: int, class_size: int, n_instances: int,
              rate: float, rng: RandomStream) -> GenResult:
    """Planted data with labels flipped uniformly-at-random at the given rate.

    Rate 0 reproduces gen_planted exactly for the same stream: the noise
    draws come from a separate child, so they cannot perturb the clean draw.
    """
    if not (0.0 <= rate <= 1.0):
        raise InvalidParams(f"noise rate must be in [0, 1], got {rate!r}")
    clean = gen_planted(m, n_labels, class_size, n_instances, rng)
    if rate == 0.0:
        return clean
    gen = rng.child("noise").generator()
    ds = clean.dataset
    labels = ds.labels.tolist()
    flipped = 0
    for i, y in enumerate(labels):
        if gen.random() < rate:
            labels[i] = int(gen.choice([v for v in range(n_labels) if v != y]))
            flipped += labels[i] != y
    ds = Dataset(ds.key_table, ds.key_ids, labels, ds.alphabet)
    return GenResult(dataset=ds, finite_class=clean.finite_class,
                     target_row=clean.target_row, flipped=flipped)


def gen_data(kind: str, params: dict, rng: RandomStream) -> GenResult:
    params = dict(params or {})
    if kind == "planted-finite-class":
        return gen_planted(m=int(params.get("m", 100)),
                           n_labels=int(params.get("labels", 4)),
                           class_size=int(params.get("class_size", 8)),
                           n_instances=int(params.get("instances", 16)),
                           rng=rng)
    if kind == "counterexample":
        return gen_counterexample(params.get("multiplicities", 1))
    if kind == "noisy":
        return gen_noisy(m=int(params.get("m", 100)),
                         n_labels=int(params.get("labels", 4)),
                         class_size=int(params.get("class_size", 8)),
                         n_instances=int(params.get("instances", 16)),
                         rate=float(params.get("rate", 0.0)),
                         rng=rng)
    raise InvalidParams(f"unknown data kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON-lines dataset files


def save_dataset_jsonl(dataset: Dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        header = {"format": DATA_FORMAT, "alphabet": list(dataset.alphabet)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for x, y in zip(dataset.instances, dataset.labels.tolist()):
            x = list(x) if isinstance(x, tuple) else x
            fh.write(json.dumps({"x": x, "y": y}, sort_keys=True) + "\n")


def load_dataset_jsonl(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise InvalidParams(f"{path}: empty dataset file")
    header = json.loads(lines[0])
    if header.get("format") != DATA_FORMAT:
        raise InvalidParams(f"{path}: expected format {DATA_FORMAT!r}, "
                            f"got {header.get('format')!r}")
    alphabet = tuple(int(v) for v in header["alphabet"])
    pairs = []
    for ln in lines[1:]:
        row = json.loads(ln)
        pairs.append((as_instance_key(row["x"]), int(row["y"])))
    return make_dataset(pairs, alphabet=alphabet)


# ---------------------------------------------------------------------------
# Experiment orchestration


_ROW_FIELDS = (
    "seed", "pipeline", "consistent", "heldout_error", "true_error", "r",
    "epsilon", "audit_pass_rate", "oracle_calls", "plurality_accuracy",
    "elimination_ok", "regret_ok", "error", "message", "passed", "wall_time_s",
)
_VOLATILE_FIELDS = ("wall_time_s",)


def _opt(cfg: dict, key: str, default):
    """cfg[key], or the default when the key is absent or None."""
    value = cfg.get(key)
    return default if value is None else value


def _learner_from_config(cfg, fc, gamma: float):
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    kind = cfg.get("kind", "erm")
    if kind == "erm":
        if fc is None:
            raise InvalidParams("the erm learner needs a planted or loaded class")
        return ErmFiniteLearner(fc)
    if kind == "oracle":
        return CalibratedBrgOracle(float(cfg.get("gamma", gamma)))
    if kind == "tooweak":
        return TooWeakLearner()
    if kind == "stump":
        return StumpLearner()
    if kind == "constant":
        return ConstantLearner(int(cfg.get("label", 0)))
    raise InvalidParams(f"unknown learner kind {kind!r}")


def spec_from_config(cfg: dict, dataset: Dataset, fc, learner="erm") -> WeakLearnerSpec:
    """The weak learner named by cfg["learner"] (default: learner) at subsample size m0."""
    gamma = float(_opt(cfg, "gamma", 0.1))
    return WeakLearnerSpec(_learner_from_config(_opt(cfg, "learner", learner), fc, gamma),
                           int(_opt(cfg, "m0", dataset.m)))


def _heldout_set(gen_res: GenResult, cfg: dict, seed: int):
    n = int(cfg.get("m", 500))
    fc = gen_res.finite_class
    if fc is None or n < 1:
        return None
    gen = RandomStream(seed, ("heldout",)).generator()
    xs = gen.integers(0, fc.n, size=n)
    row = fc.table[gen_res.target_row]
    return [(int(x), int(row[int(x)])) for x in xs]


def _safe_miss_rate(predict, points) -> float:
    """Fraction of points predict gets wrong; None if any lookup fails."""
    if not points:
        return None
    misses = 0
    for x, y in points:
        try:
            out = predict(x)
        except (UnknownInstance, ListLookupError):
            return None
        if isinstance(out, tuple):
            misses += y not in out
        else:
            misses += out != y
    return misses / len(points)


def _true_error(predict, gen_res: GenResult) -> float:
    """Exact miss rate under the uniform-instance planted distribution."""
    fc = gen_res.finite_class
    if fc is None:
        return None
    row = fc.table[gen_res.target_row]
    return _safe_miss_rate(predict, [(c, int(row[j])) for j, c in enumerate(fc.columns)])


def _bound_or_none(r: int, m: int, delta: float):
    try:
        return generalization_bound(r, m, delta)
    except RTooLarge:
        return None


# One runner per pipeline, shared by run_experiment and the CLI. Each takes
# a config dict (None means "not set" for every optional key), a seed, the
# data, the finite class (None if there is none) and an audit log.


def run_boost(cfg: dict, seed: int, dataset: Dataset, fc, audit_log: BrgAuditLog):
    """Boost once from the defaults, or halve gamma until a run survives ("adaptive")."""
    spec = spec_from_config(cfg, dataset, fc)
    gamma = float(_opt(cfg, "gamma", 0.1))
    delta = float(_opt(cfg, "delta", 0.05))
    if cfg.get("adaptive"):
        return adaptive_gamma(dataset, spec, gamma, seed=seed, delta=delta,
                              audit_log=audit_log).result
    config = BoostConfig.from_defaults(
        dataset.m, gamma, m0=cfg.get("m0"), seed=seed, delta=delta,
        T=cfg.get("T"), p=cfg.get("p"), eta=cfg.get("eta"))
    return recursive_boost(dataset, spec, config, audit_log=audit_log)


def run_list_boost(cfg: dict, seed: int, dataset: Dataset, fc, audit_log: BrgAuditLog):
    """Shrink the class's k0-list ERM learner to lists of size floor(k0/(1-2 eps0))."""
    from .listlearn import ErmListLearner, list_boost

    if fc is None:
        raise InvalidParams("list-boost needs a planted or loaded class")
    k0 = int(_opt(cfg, "k0", 2))
    return list_boost(dataset, ErmListLearner(fc, k0), k0, float(_opt(cfg, "eps0", 0.0)),
                      delta=float(_opt(cfg, "delta", 0.05)), seed=seed, m0=cfg.get("m0"),
                      T=cfg.get("T"), audit_log=audit_log)


def run_oig_listpac(cfg: dict, seed: int, dataset: Dataset, fc, audit_log=None):
    """Learn a consistent k-list from the class; nothing is audited."""
    if fc is None:
        raise InvalidParams("oig-listpac needs a planted or loaded class")
    return k_list_pac_learn(
        fc, dataset, int(_opt(cfg, "k", 1)), seed=seed, d=cfg.get("d"),
        strategy=_opt(cfg, "strategy", "auto"),
        orient_budget=int(_opt(cfg, "orient_budget", default_budget("orient"))),
        search_budget=int(_opt(cfg, "search_budget", default_budget("search"))))


def _row(cfg: dict, seed: int, gen_res: GenResult, predict, consistent, r: int,
         oracle_calls, audit_log) -> dict:
    """The row fields every pipeline but plurality reports; a failed audit voids consistency."""
    pass_rate = None if audit_log is None else audit_log.pass_rate
    if pass_rate not in (None, 1.0):
        consistent = None
    return {
        "consistent": consistent,
        "heldout_error": _safe_miss_rate(predict, _heldout_set(
            gen_res, _opt(cfg, "heldout", {}), seed)),
        "true_error": _true_error(predict, gen_res),
        "r": r,
        "epsilon": _bound_or_none(r, gen_res.dataset.m, float(_opt(cfg, "delta", 0.05))),
        "audit_pass_rate": pass_rate,
        "oracle_calls": oracle_calls,
        "passed": bool(consistent),
    }


def _run_boost_seed(cfg: dict, seed: int, gen_res: GenResult) -> dict:
    audit_log = BrgAuditLog()
    res = run_boost(cfg, seed, gen_res.dataset, gen_res.finite_class, audit_log)
    return _row(cfg, seed, gen_res, res.predict, res.consistent_on_train,
                res.compression_size, res.oracle_calls, audit_log)


def _run_list_boost_seed(cfg: dict, seed: int, gen_res: GenResult) -> dict:
    audit_log = BrgAuditLog()
    res = run_list_boost(cfg, seed, gen_res.dataset, gen_res.finite_class, audit_log)
    return _row(cfg, seed, gen_res, res.mu, res.inner.consistent_on_train,
                compression_size(res.inner.record), res.inner.T, audit_log)


def _run_listpac_seed(cfg: dict, seed: int, gen_res: GenResult) -> dict:
    res = run_oig_listpac(cfg, seed, gen_res.dataset, gen_res.finite_class)
    return _row(cfg, seed, gen_res, res.mu, res.consistent_on_train,
                res.compression_size, None, None)


def _run_plurality_seed(cfg: dict, seed: int, gen_res: GenResult) -> dict:
    """Plain Hedge diagnostic: plurality-vote accuracy and min-label elimination."""
    ds = gen_res.dataset
    spec = spec_from_config(cfg, ds, gen_res.finite_class, learner="tooweak")
    T = int(_opt(cfg, "T", 100))
    eta = float(cfg.get("eta") or default_learning_rate(ds.m, T))
    mu = ListFunction.universal(ds.alphabet)
    result = run_hedge(ds, mu, spec, T, eta, RandomStream(seed, ("plurality",)))
    score = result.score
    hits = elim_ok = 0
    for i, x in enumerate(ds.instances):
        y = int(ds.labels[i])
        counts = score.counts(x)
        top = max(ds.alphabet, key=lambda lab: (counts[lab], -lab))
        hits += top == y
        elim_ok += eliminate_min_label(score, x, ds.alphabet) != y
    regret_ok = result.regret_satisfied()
    row = {
        "consistent": None,
        "audit_pass_rate": None,
        "oracle_calls": T,
        "plurality_accuracy": hits / ds.m,
        "elimination_ok": elim_ok == ds.m,
        "regret_ok": regret_ok,
    }
    row["passed"] = row["elimination_ok"] and regret_ok
    return row


# Each pipeline's seed runner and the top-level config keys it reads.
_PIPELINES = {
    "boost": (_run_boost_seed, ("gamma", "learner", "m0", "delta", "adaptive", "T", "p",
                                "eta", "heldout")),
    "list-boost": (_run_list_boost_seed, ("k0", "eps0", "delta", "m0", "T", "heldout")),
    "oig-listpac": (_run_listpac_seed, ("k", "d", "strategy", "orient_budget",
                                        "search_budget", "delta", "heldout")),
    "plurality": (_run_plurality_seed, ("gamma", "learner", "m0", "T", "eta")),
}
# The keys run_experiment and _seed_row read for every pipeline.
_COMMON_KEYS = ("pipeline", "seeds", "workers", "dataset", "fixed_data")


def _check_config(cfg: dict) -> None:
    """InvalidParams for an unknown pipeline, or naming the first key it does not read."""
    pipeline = cfg.get("pipeline", "boost")
    if pipeline not in _PIPELINES:
        raise InvalidParams(f"unknown pipeline {pipeline!r}")
    unread = [key for key in cfg if key not in _COMMON_KEYS + _PIPELINES[pipeline][1]]
    if unread:
        raise InvalidParams(f"config key {unread[0]!r} is not read by the {pipeline!r} "
                            "pipeline")


def _seed_row(cfg: dict, seed: int) -> dict:
    pipeline = cfg.get("pipeline", "boost")
    runner = _PIPELINES[pipeline][0]
    data_cfg = dict(cfg.get("dataset", {}))
    kind = data_cfg.pop("kind", "planted-finite-class")
    path = data_cfg.pop("path", None)
    data_seed = seed if not cfg.get("fixed_data") else int(data_cfg.get("seed", 0))
    if path is not None:
        gen_res = GenResult(dataset=load_dataset_jsonl(path))
        class_path = data_cfg.get("class_path")
        if class_path:
            from .oig import load_finite_class

            gen_res.finite_class = load_finite_class(class_path)
            gen_res.target_row = int(data_cfg.get("target_row", 0))
    else:
        gen_res = gen_data(kind, data_cfg, RandomStream(data_seed, ("gen", kind)))
    row = {f: None for f in _ROW_FIELDS}
    row.update(seed=seed, pipeline=pipeline, passed=False)
    start = time.perf_counter()
    try:
        row.update(runner(cfg, seed, gen_res))
    except ListboostError as exc:
        row["error"] = type(exc).__name__
        row["message"] = str(exc)
    except Exception as exc:
        raise RuntimeError(f"seed {seed}: {type(exc).__name__}: {exc}") from exc
    row["wall_time_s"] = round(time.perf_counter() - start, 6)
    return row


@dataclass
class ExperimentReport:
    config: dict
    rows: list
    aggregate: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return bool(self.rows) and all(r.get("passed") for r in self.rows)

    def digest(self) -> str:
        payload = [
            {k: v for k, v in row.items() if k not in _VOLATILE_FIELDS}
            for row in self.rows
        ]
        blob = json.dumps({"config": self.config, "rows": payload}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _aggregate(rows: list) -> dict:
    def mean_of(key):
        vals = [r[key] for r in rows if r.get(key) is not None]
        return (sum(vals) / len(vals)) if vals else None

    failures = [
        {"seed": r["seed"], "error": r["error"], "message": r["message"]}
        for r in rows if r.get("error")
    ]
    return {
        "schema": REPORT_SCHEMA,
        "n_seeds": len(rows),
        "n_passed": sum(bool(r.get("passed")) for r in rows),
        "consistent_fraction": mean_of("consistent"),
        "mean_heldout_error": mean_of("heldout_error"),
        "mean_true_error": mean_of("true_error"),
        "mean_r": mean_of("r"),
        "mean_epsilon": mean_of("epsilon"),
        "mean_oracle_calls": mean_of("oracle_calls"),
        "failures": failures,
    }


def _config_seeds(cfg: dict) -> list:
    seeds = cfg.get("seeds", 10)
    if isinstance(seeds, int):
        return list(range(seeds))
    if isinstance(seeds, dict):
        start = int(seeds.get("start", 0))
        return list(range(start, start + int(seeds.get("count", 10))))
    return [int(s) for s in seeds]


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_experiment(config, workers: int = None) -> ExperimentReport:
    """Run a pipeline over each configured seed and assemble rows in seed order."""
    cfg = load_config(config) if isinstance(config, (str, os.PathLike)) else dict(config)
    _check_config(cfg)
    seeds = _config_seeds(cfg)
    if not seeds:
        raise InvalidParams("config selects no seeds")
    workers = int(workers if workers is not None else cfg.get("workers", 1))
    if workers > 1 and len(seeds) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_seed_row, [cfg] * len(seeds), seeds))
    else:
        rows = [_seed_row(cfg, s) for s in seeds]
    rows.sort(key=lambda r: r["seed"])
    report = ExperimentReport(config=cfg, rows=rows)
    agg = _aggregate(rows)
    agg["digest"] = report.digest()
    report.aggregate = agg
    return report


def write_report(report: ExperimentReport, path, stable: bool = False):
    """JSON-lines: one row per seed, then the aggregate; stable zeroes wall time."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in report.rows:
            out = dict(row)
            if stable:
                for key in _VOLATILE_FIELDS:
                    out[key] = 0.0
            fh.write(json.dumps(out, sort_keys=True) + "\n")
        fh.write(json.dumps({"aggregate": report.aggregate}, sort_keys=True) + "\n")


def write_report_csv(report: ExperimentReport, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(_ROW_FIELDS))
        writer.writeheader()
        for row in report.rows:
            writer.writerow({k: row.get(k) for k in _ROW_FIELDS})
