#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

    python3 bench/run.py --workload boost-erm --seed 3 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seconds 60

Run from the root of a checkout. The package is imported from that
checkout's ``src/``; the run fails, printing no result, when it is not
there. ``--workload all`` runs every workload, each in its own interpreter
process, one after the other.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds, plus the tracing overhead on
``pipeline_s`` against the untraced rounds of the same run; the spans are
written to ``bench/out/``.
"""

import os

# One thread per run: no BLAS or OpenMP pool is started alongside the interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("hedge-floor", "boost-oracle", "boost-erm", "listpac-oig")
# Set-up (import plus input building) is repeated this many times per run and
# its median reported.
SETUP_REPEATS = 21


def _forget(package: str):
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, size_table: str):
    """Import the package and build the first round's inputs, SETUP_REPEATS times.

    numpy is imported before timing starts: it is a dependency, not part of
    the package. Between repeats the package and the workload module are
    dropped from ``sys.modules`` so that every repeat imports them afresh.
    """
    import numpy  # noqa: F401

    import_s, inputs_s = [], []
    for _ in range(SETUP_REPEATS):
        _forget("listboost")
        _forget("workloads")
        t0 = time.perf_counter()
        lb = importlib.import_module("listboost")
        import_s.append(time.perf_counter() - t0)
        workloads = importlib.import_module("workloads")
        wl = workloads.WORKLOADS[workload]
        size = getattr(workloads, size_table)[workload]
        t0 = time.perf_counter()
        batch = wl.inputs(seed, size)
        inputs_s.append(time.perf_counter() - t0)
    if Path(lb.__file__).resolve().parent != SRC / "listboost":
        raise SystemExit(f"listboost was imported from {lb.__file__}, not from {SRC}")
    return lb, workloads, wl, size, batch, statistics.median(import_s), statistics.median(inputs_s)


def run_workload(args) -> int:
    lb, workloads, wl, size, batch, import_s, inputs_s = set_up(
        args.workload, args.seed, "TINY_SIZES" if args.tiny else "SIZES")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"record-{args.workload}-{os.getpid()}.json"

    rounds = []  # per finished round: (traced, stage totals, record_r)
    notes = {}
    problems = []
    attempted = failed = 0
    start = time.perf_counter()
    longest = 0.0
    round_no = 0
    while True:
        began = time.perf_counter()
        traced = tracer is not None and round_no % 2 == 1
        if traced:
            tracer.begin_round()
        totals = dict.fromkeys(workloads.STAGES, 0.0)
        record_r = 0
        round_failed = False
        for inp in batch:
            attempted += 1
            clock = workloads.Clock()
            try:
                if traced:
                    tracer.install()
                try:
                    out = wl.run(inp, clock, record_path)
                finally:
                    if traced:
                        tracer.uninstall()
                    record_path.unlink(missing_ok=True)
            except lb.ListboostError as exc:
                failed += 1
                round_failed = True
                print(f"round {round_no}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            problems += [f"round {round_no}: {p}" for p in wl.check(inp, out)]
            for stage in totals:
                totals[stage] += clock.stages[stage]
            record_r += out.record_r
            for key, value in out.notes.items():
                notes.setdefault(key, []).append(value)
            del out
        if traced:
            tracer.end_round()
        if not round_failed:
            rounds.append((traced, totals, record_r))
        round_no += 1
        gc.collect()
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > args.seconds:
            if tracer is None or round_no >= 2:
                break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = [(t, r) for traced, t, r in rounds if not traced]
    if not plain:
        print("error: no round finished without a failed operation", file=sys.stderr)
        return 1

    def median_of(pick, chosen):
        return statistics.median(pick(t, r) for t, r in chosen)

    def upper_quartile_of(pick, chosen):
        # The machine's speed changes between periods of seconds to minutes.
        # Rounds in its slower periods take a steady time, while faster
        # periods come and go, so the upper quartile over a run's rounds moves
        # less from run to run than the median does (see README.md).
        values = [pick(t, r) for t, r in chosen]
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=4, method="inclusive")[2]

    def pipeline(t, r):
        return sum(t.values())

    if tracer is None:
        metrics = {
            "setup_s": (import_s + inputs_s, "s"),
            "train_s": (upper_quartile_of(lambda t, r: t["train"], plain), "s"),
            "replay_s": (upper_quartile_of(lambda t, r: t["replay"], plain), "s"),
            "pipeline_s": (upper_quartile_of(pipeline, plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "record_r": (statistics.median_low(r for t, r in plain), "count"),
        }
    else:
        traced_rounds = [(t, r) for traced, t, r in rounds if traced]
        per_round = tracer.per_round()
        metrics = {}
        for name, (unit, _) in spans.PER_LAYER.items():
            middle = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = (middle(agg[name] for agg in per_round), unit)
        metrics["setup.import.s"] = (import_s, "s")
        metrics["setup.inputs.s"] = (inputs_s, "s")
        overhead = median_of(pipeline, traced_rounds) / median_of(pipeline, plain) - 1.0
        metrics["trace.overhead"] = (100.0 * overhead, "%")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")

    print(f"workload {args.workload}  seed {args.seed}  rounds {round_no}  "
          f"batch {wl.batch}  operations {attempted}  failed {failed}")
    print("  pipeline_s per round: " + " ".join(
        f"{pipeline(t, r):.3f}{'*' if traced else ''}" for traced, t, r in rounds))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for key, values in notes.items():
        print(f"  note: {key} {statistics.fmean(values):.6g} (mean of {len(values)})")
    for problem in problems:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with code {done.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="start no round that would end after this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "listboost" / "__init__.py").is_file():
        print(f"error: no listboost package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
