"""Command-line harness: data generation, pipelines, audits, and bounds.

Every subcommand prints JSON (one object per line) so output can feed the
same tooling as the experiment reports. Exit code 0 means every check the
invocation asked for passed; failures and surfaced pipeline errors exit 1.
boost, audit, list-boost and oig --listpac build a config dict from their
flags and run it through the same harness runner as the experiment pipeline
of that name; hint takes its learner from the same factory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .compression import (
    CompressionRecord,
    bound_is_vacuous,
    compression_size,
    generalization_bound,
)
from .core import RandomStream, as_instance_key
from .errors import ListboostError
from .harness import (
    _bound_or_none,
    default_budget,
    gen_data,
    load_dataset_jsonl,
    run_boost,
    run_experiment,
    run_list_boost,
    run_oig_listpac,
    save_dataset_jsonl,
    spec_from_config,
    write_report,
    write_report_csv,
)
from .hint import build_initial_hint, default_hint_rounds
from .weak_learn import BrgAuditLog


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _parse_key(raw: str):
    try:
        return as_instance_key(json.loads(raw))
    except json.JSONDecodeError:
        return raw


def _load_class(path):
    from .oig import load_finite_class

    return load_finite_class(path)


def _add_learner_flags(sub):
    sub.add_argument("--data", required=True, help="JSON-lines dataset file")
    sub.add_argument("--class-file", help="finite-class JSON (needed by erm)")
    sub.add_argument("--learner", default="erm",
                     choices=["erm", "oracle", "tooweak", "stump"])
    sub.add_argument("--gamma", type=float, default=0.1)
    sub.add_argument("--m0", type=int, help="per-round subsample size (default m)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--delta", type=float, default=0.05)


def _cmd_gen_data(args) -> int:
    params = {
        "m": args.m, "labels": args.labels, "class_size": args.class_size,
        "instances": args.instances, "rate": args.rate,
    }
    if args.multiplicities:
        params["multiplicities"] = [int(v) for v in args.multiplicities.split(",")]
    res = gen_data(args.kind, params, RandomStream(args.seed, ("gen", args.kind)))
    save_dataset_jsonl(res.dataset, args.out)
    summary = {"kind": args.kind, "m": res.dataset.m,
               "alphabet": list(res.dataset.alphabet), "out": args.out,
               "flipped": res.flipped}
    if res.finite_class is not None and args.class_out:
        from .oig import save_finite_class

        save_finite_class(res.finite_class, args.class_out)
        summary["class_out"] = args.class_out
        summary["target_row"] = res.target_row
    _emit(summary)
    return 0


def _config(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys}


def _run_boost(args, audit_log: BrgAuditLog):
    dataset = load_dataset_jsonl(args.data)
    fc = _load_class(args.class_file) if args.class_file else None
    cfg = _config(args, ("learner", "gamma", "m0", "delta", "adaptive", "T", "p", "eta"))
    return dataset, run_boost(cfg, args.seed, dataset, fc, audit_log)


def _cmd_boost(args) -> int:
    audit_log = BrgAuditLog()
    try:
        dataset, res = _run_boost(args, audit_log)
    except ListboostError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1
    r = res.compression_size
    _emit({
        "consistent": res.consistent_on_train,
        "audit_pass_rate": audit_log.pass_rate,
        "oracle_calls": res.oracle_calls,
        "r": r,
        "epsilon": _bound_or_none(r, dataset.m, args.delta),
        "phases": res.chain.realized_phases,
        "denominators": res.record.meta["denominators"],
        "hint_rounds": res.hint_result.rounds_run,
    })
    if args.record:
        res.record.dump(args.record)
    return 0 if (res.consistent_on_train and audit_log.all_passed) else 1


def _cmd_hint(args) -> int:
    dataset = load_dataset_jsonl(args.data)
    fc = _load_class(args.class_file) if args.class_file else None
    audit_log = BrgAuditLog()
    try:
        spec = spec_from_config(_config(args, ("learner", "gamma", "m0")), dataset, fc)
        p = args.p if args.p else default_hint_rounds(dataset.m, args.gamma)
        res = build_initial_hint(dataset, spec, p, RandomStream(args.seed, ("hint",)),
                                 gamma=args.gamma, audit_log=audit_log)
    except ListboostError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1
    sizes = [len(res.mu(x)) for x in dataset.unique_instances]
    _emit({
        "covered_all": res.covered_all,
        "rounds_run": res.rounds_run,
        "p": p,
        "max_list_size": max(sizes),
        "audit_pass_rate": audit_log.pass_rate,
    })
    return 0 if (res.covered_all and audit_log.all_passed) else 1


def _cmd_audit(args) -> int:
    audit_log = BrgAuditLog()
    try:
        _dataset, res = _run_boost(args, audit_log)
    except ListboostError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1
    for a in audit_log.entries:
        _emit({"tag": a.tag, "accuracy": a.accuracy, "coverage": a.coverage,
               "threshold": a.threshold, "passed": a.passed})
    _emit({"pass_rate": audit_log.pass_rate, "audits": len(audit_log.entries),
           "consistent": res.consistent_on_train})
    return 0 if audit_log.all_passed else 1


def _cmd_list_boost(args) -> int:
    from .listlearn import evaluate_list_error

    dataset = load_dataset_jsonl(args.data)
    fc = _load_class(args.class_file)
    audit_log = BrgAuditLog()
    try:
        res = run_list_boost(_config(args, ("k0", "eps0", "delta", "m0", "T")),
                             args.seed, dataset, fc, audit_log)
    except ListboostError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1
    _emit({
        "k0": args.k0, "eps0": args.eps0, "gamma": res.gamma,
        "size_bound": res.size_bound,
        "train_list_error": evaluate_list_error(res.mu, dataset),
        "consistent": res.inner.consistent_on_train,
        "audit_pass_rate": audit_log.pass_rate,
        "T": res.inner.T,
    })
    if args.record:
        res.inner.record.dump(args.record)
    return 0 if (res.inner.consistent_on_train and audit_log.all_passed) else 1


def _cmd_oig(args) -> int:
    from .oig import build_oig, find_orientation, kds_dimension, one_inclusion_list_predict

    if all(mode is None for mode in (args.dim, args.orient, args.predict, args.listpac)):
        raise SystemExit("oig needs one of --dim, --orient, --predict, --listpac")
    fc = _load_class(args.class_file)
    budget = default_budget("orient") if args.budget is None else args.budget
    try:
        if args.dim is not None:
            d = kds_dimension(fc, args.dim, budget=budget)
            _emit({"k": args.dim, "dimension": d, "rows": fc.size, "columns": fc.n})
            return 0
        if args.orient is not None:
            graph = build_oig(fc)
            orientation = find_orientation(graph, args.orient, strategy=args.strategy,
                                           budget=budget)
            _emit({"k": args.orient, "edges": len(graph.edges),
                   "max_out_degree": orientation.max_out_degree,
                   "strategy": orientation.strategy, "optimal": orientation.optimal})
            return 0
        dataset = load_dataset_jsonl(args.data)
        if args.predict is not None:
            pred = one_inclusion_list_predict(fc, dataset,
                                              _parse_key(args.query), args.predict,
                                              strategy=args.strategy, budget=budget)
            _emit({"query": args.query, "labels": list(pred.labels),
                   "edge_size": pred.edge_size, "strategy": pred.strategy})
            return 0
        cfg = {"k": args.listpac, "d": args.d, "strategy": args.strategy,
               "orient_budget": budget}
        res = run_oig_listpac(cfg, args.seed, dataset, fc)
    except ListboostError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1
    _emit({
        "k": args.listpac, "d": res.d, "p": res.p, "q": res.q,
        "rounds_run": res.rounds_run, "early_stopped": res.early_stopped,
        "consistent": res.consistent_on_train, "r": res.compression_size,
    })
    if args.record:
        res.record.dump(args.record)
    return 0 if res.consistent_on_train else 1


def _cmd_compress_bound(args) -> int:
    row = {"r": args.r}
    if args.record:
        record = CompressionRecord.load(args.record)
        row = {"r": compression_size(record), "slots": sum(len(g.slots) for g in record.groups),
               "kappa": sum(len(s.indices) for g in record.groups for s in g.slots)}
    if row["r"] is None:
        raise SystemExit("compress-bound needs --r or --record")
    try:
        eps = generalization_bound(row["r"], args.m, args.delta)
    except ListboostError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc), **row, "m": args.m})
        return 1
    _emit({**row, "m": args.m, "delta": args.delta, "epsilon": eps,
           "vacuous": bound_is_vacuous(eps)})
    return 0


def _apply_overrides(cfg: dict, pairs):
    for raw in pairs or []:
        if "=" not in raw:
            raise SystemExit(f"--set expects key=value, got {raw!r}")
        key, val = raw.split("=", 1)
        try:
            val = json.loads(val)
        except json.JSONDecodeError:
            pass
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = val
    return cfg


def _cmd_experiment(args) -> int:
    from .harness import load_config

    cfg = _apply_overrides(load_config(args.config), args.set)
    report = run_experiment(cfg, workers=args.workers)
    for row in report.rows:
        _emit(row if not args.stable else {**row, "wall_time_s": 0.0})
    _emit({"aggregate": report.aggregate})
    if args.out:
        write_report(report, args.out, stable=args.stable)
    if args.csv:
        write_report_csv(report, args.csv)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listboost",
        description="Multiclass list boosting: pipelines, audits, and bounds.")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen-data", help="write a synthetic JSON-lines dataset")
    g.add_argument("--kind", default="planted-finite-class",
                   choices=["planted-finite-class", "counterexample", "noisy"])
    g.add_argument("--m", type=int, default=100)
    g.add_argument("--labels", type=int, default=4)
    g.add_argument("--class-size", type=int, default=8)
    g.add_argument("--instances", type=int, default=16)
    g.add_argument("--rate", type=float, default=0.0)
    g.add_argument("--multiplicities", help="comma-separated counts for a,b,c")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--class-out", help="also write the planted class JSON here")
    g.set_defaults(func=_cmd_gen_data)

    b = subs.add_parser("boost", help="run the recursive booster")
    _add_learner_flags(b)
    b.add_argument("--T", type=int)
    b.add_argument("--p", type=int)
    b.add_argument("--eta", type=float)
    b.add_argument("--adaptive", action="store_true",
                   help="halve gamma on failure until a run survives")
    b.add_argument("--record", help="write the compression record JSON here")
    b.set_defaults(func=_cmd_boost)

    h = subs.add_parser("hint", help="build just the initial hint")
    _add_learner_flags(h)
    h.add_argument("--p", type=int, help="round budget (default ceil(ln m / gamma))")
    h.set_defaults(func=_cmd_hint)

    a = subs.add_parser("audit", help="run the booster and emit every audit row")
    _add_learner_flags(a)
    a.add_argument("--T", type=int)
    a.add_argument("--p", type=int)
    a.add_argument("--eta", type=float)
    a.add_argument("--adaptive", action="store_true")
    a.set_defaults(func=_cmd_audit)

    lb = subs.add_parser("list-boost", help="shrink a k0-list learner")
    lb.add_argument("--data", required=True)
    lb.add_argument("--class-file", required=True)
    lb.add_argument("--k0", type=int, required=True)
    lb.add_argument("--eps0", type=float, default=0.0)
    lb.add_argument("--T", type=int)
    lb.add_argument("--m0", type=int)
    lb.add_argument("--seed", type=int, default=0)
    lb.add_argument("--delta", type=float, default=0.05)
    lb.add_argument("--record")
    lb.set_defaults(func=_cmd_list_boost)

    o = subs.add_parser("oig", help="one-inclusion graph tools")
    o.add_argument("--class-file", required=True)
    o.add_argument("--dim", type=int, help="report the k-DS dimension for this k")
    o.add_argument("--orient", type=int, help="orient edges for this k")
    o.add_argument("--predict", type=int,
                   help="one-inclusion k-list prediction (needs --data, --query)")
    o.add_argument("--listpac", type=int, help="learn a k-list (needs --data)")
    o.add_argument("--data")
    o.add_argument("--query")
    o.add_argument("--d", type=int)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--strategy", default="auto",
                   choices=["auto", "greedy", "exhaustive"])
    o.add_argument("--budget", type=int)
    o.add_argument("--record")
    o.set_defaults(func=_cmd_oig)

    c = subs.add_parser("compress-bound", help="evaluate the generalization bound")
    c.add_argument("--r", type=int)
    c.add_argument("--record", help="read r, the slot count and kappa from a record JSON")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--delta", type=float, default=0.05)
    c.set_defaults(func=_cmd_compress_bound)

    e = subs.add_parser("experiment", help="run a config over seeds, emit a report")
    e.add_argument("--config", required=True)
    e.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (dotted paths allowed)")
    e.add_argument("--out", help="write the JSON-lines report here")
    e.add_argument("--csv", help="also write rows as CSV here")
    e.add_argument("--stable", action="store_true",
                   help="zero wall-time fields so outputs are byte-comparable")
    e.add_argument("--workers", type=int)
    e.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
