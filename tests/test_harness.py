"""Experiment harness: generators, JSON-lines IO, reports, budget caps."""

import json
from pathlib import Path

import numpy as np
import pytest

from listboost import RandomStream
from listboost.harness import (
    BUDGET_ENV,
    DATA_FORMAT,
    ExperimentReport,
    default_budget,
    gen_counterexample,
    gen_data,
    gen_noisy,
    gen_planted,
    load_dataset_jsonl,
    run_experiment,
    save_dataset_jsonl,
    write_report,
    write_report_csv,
)
from listboost.errors import InvalidParams


def test_counterexample_pairs_exact():
    res = gen_counterexample()
    assert [(ex.instance, ex.label) for ex in res.dataset.examples] == [
        ("a", 0), ("b", 1), ("c", 2)]
    res3 = gen_counterexample(multiplicities=(2, 1, 3))
    assert res3.dataset.m == 6
    assert res3.dataset.labels.tolist() == [0, 0, 1, 2, 2, 2]
    with pytest.raises(InvalidParams):
        gen_counterexample(multiplicities=(1, 0, 1))


def test_planted_labels_come_from_target_row():
    res = gen_planted(m=60, n_labels=3, class_size=6, n_instances=10,
                      rng=RandomStream(5, ("gen",)))
    fc = res.finite_class
    assert fc.size == 6 and fc.n == 10
    assert res.target_row == 0
    for ex in res.dataset.examples:
        assert ex.label == int(fc.table[0, fc.column_of(ex.instance)])


def test_planted_rejects_impossible_class():
    with pytest.raises(InvalidParams):
        gen_planted(m=5, n_labels=2, class_size=10, n_instances=3,
                    rng=RandomStream(0, ("gen",)))


def test_noisy_rate_zero_is_exactly_clean():
    a = gen_planted(m=40, n_labels=3, class_size=5, n_instances=8,
                    rng=RandomStream(7, ("gen",)))
    b = gen_noisy(m=40, n_labels=3, class_size=5, n_instances=8, rate=0.0,
                  rng=RandomStream(7, ("gen",)))
    assert b.flipped == 0
    assert [(e.instance, e.label) for e in a.dataset.examples] == [
        (e.instance, e.label) for e in b.dataset.examples]


def test_noisy_flips_some_labels():
    res = gen_noisy(m=200, n_labels=4, class_size=5, n_instances=8, rate=0.3,
                    rng=RandomStream(3, ("gen",)))
    assert 0 < res.flipped < 200
    fc = res.finite_class
    mism = sum(1 for ex in res.dataset.examples
               if ex.label != int(fc.table[0, fc.column_of(ex.instance)]))
    assert mism == res.flipped


def test_gen_data_dispatch_and_unknown_kind():
    res = gen_data("counterexample", {}, RandomStream(0, ("gen",)))
    assert res.dataset.m == 3
    with pytest.raises(InvalidParams):
        gen_data("mystery", {}, RandomStream(0, ("gen",)))


def test_dataset_jsonl_round_trip(tmp_path):
    res = gen_planted(m=25, n_labels=3, class_size=4, n_instances=6,
                      rng=RandomStream(2, ("gen",)))
    path = tmp_path / "data.jsonl"
    save_dataset_jsonl(res.dataset, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["format"] == DATA_FORMAT
    back = load_dataset_jsonl(path)
    assert back.m == res.dataset.m
    assert back.alphabet == res.dataset.alphabet
    assert [(e.instance, e.label) for e in back.examples] == [
        (e.instance, e.label) for e in res.dataset.examples]


def test_dataset_jsonl_tuple_instances(tmp_path):
    from listboost.core import make_dataset

    ds = make_dataset([((0.0, 1.0), 0), ((1.0, 0.0), 1)], alphabet=(0, 1))
    path = tmp_path / "tuples.jsonl"
    save_dataset_jsonl(ds, path)
    back = load_dataset_jsonl(path)
    assert back.unique_instances == ds.unique_instances


BOOST_CFG = {
    "pipeline": "boost",
    "seeds": 3,
    "gamma": 0.3,
    "delta": 0.1,
    "learner": "erm",
    "dataset": {"kind": "planted-finite-class", "m": 40, "labels": 3,
                "class_size": 5, "instances": 8},
}


def test_boost_pipeline_rows():
    report = run_experiment(BOOST_CFG)
    assert report.all_passed
    assert len(report.rows) == 3
    for row in report.rows:
        assert row["consistent"] is True
        assert row["audit_pass_rate"] == 1.0
        assert row["r"] >= 1 and row["oracle_calls"] >= 1
        assert row["error"] is None
        assert row["epsilon"] is None or row["epsilon"] > 0
    agg = report.aggregate
    assert agg["n_seeds"] == 3 and agg["n_passed"] == 3
    assert agg["failures"] == []


def test_plurality_pipeline_exact_two_thirds():
    cfg = {
        "pipeline": "plurality",
        "seeds": 2,
        "T": 60,
        "dataset": {"kind": "counterexample"},
    }
    report = run_experiment(cfg)
    assert report.all_passed
    for row in report.rows:
        assert row["plurality_accuracy"] <= 2.0 / 3.0 + 1e-12
        assert row["elimination_ok"] is True
        assert row["regret_ok"] is True


def test_failure_rows_are_attributed_not_raised():
    cfg = {
        "pipeline": "boost",
        "seeds": 2,
        "gamma": 0.6,
        "learner": "tooweak",
        "dataset": {"kind": "counterexample"},
    }
    report = run_experiment(cfg)
    assert not report.all_passed
    for row in report.rows:
        assert row["error"] == "PhaseFailure"
        assert row["passed"] is False
        assert row["message"]
    assert report.aggregate["failures"][0]["error"] == "PhaseFailure"


def test_digest_invariant_to_workers_and_wall_time(tmp_path):
    r1 = run_experiment(BOOST_CFG)
    r2 = run_experiment(BOOST_CFG, workers=2)
    assert r1.digest() == r2.digest()
    assert [row["seed"] for row in r2.rows] == [0, 1, 2]

    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_report(r1, p1, stable=True)
    write_report(r2, p2, stable=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_files(tmp_path):
    report = run_experiment(BOOST_CFG)
    out = tmp_path / "report.jsonl"
    write_report(report, out)
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 4
    assert all("seed" in l for l in lines[:3])
    assert lines[3]["aggregate"]["schema"] == "listboost-report/1"
    assert lines[3]["aggregate"]["digest"] == report.digest()

    csv_path = tmp_path / "report.csv"
    write_report_csv(report, csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("seed,pipeline,consistent")


def test_experiment_with_saved_dataset(tmp_path):
    res = gen_counterexample()
    path = tmp_path / "ce.jsonl"
    save_dataset_jsonl(res.dataset, path)
    cfg = {
        "pipeline": "plurality",
        "seeds": 1,
        "T": 30,
        "dataset": {"kind": "counterexample", "path": str(path)},
    }
    report = run_experiment(cfg)
    assert report.rows[0]["plurality_accuracy"] <= 2.0 / 3.0 + 1e-12


def test_listpac_pipeline_row():
    cfg = {
        "pipeline": "oig-listpac",
        "seeds": 1,
        "k": 2,
        "dataset": {"kind": "planted-finite-class", "m": 12, "labels": 3,
                    "class_size": 5, "instances": 6},
    }
    report = run_experiment(cfg)
    row = report.rows[0]
    assert row["consistent"] is True and row["passed"] is True
    assert row["r"] >= 0


def test_config_keys_the_pipeline_does_not_read_are_rejected():
    # Misspelt keys, and the game constants list-PAC no longer reads, once ran
    # silently with the defaults.
    cfg = {
        "pipeline": "oig-listpac",
        "seeds": 1,
        "k": 2,
        "dataset": {"kind": "planted-finite-class", "m": 12, "labels": 3,
                    "class_size": 5, "instances": 6},
        "game_iters": 2,
        "response_tries": 1,
        "gama": 0.9,
    }
    with pytest.raises(InvalidParams, match="config key 'game_iters' is not read by "
                                            "the 'oig-listpac' pipeline"):
        run_experiment(cfg)
    for key in ("game_iters", "response_tries"):
        del cfg[key]
    with pytest.raises(InvalidParams, match="config key 'gama'"):
        run_experiment(cfg)
    # gamma is read by boost, not by list-PAC
    cfg["gamma"] = cfg.pop("gama")
    with pytest.raises(InvalidParams, match="config key 'gamma'"):
        run_experiment(cfg)


def test_readme_example_config_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("An experiment config is a JSON object")[1]
    report = run_experiment(json.loads(example.split("```json\n")[1].split("```")[0]))
    assert report.all_passed


def test_unknown_pipeline_rejected():
    with pytest.raises(InvalidParams):
        run_experiment({"pipeline": "nope", "seeds": 1})


def test_empty_seed_selection_rejected():
    with pytest.raises(InvalidParams):
        run_experiment({"pipeline": "boost", "seeds": []})


def test_budget_env_caps(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert default_budget("orient") == 10**6
    assert default_budget("search") == 20000
    monkeypatch.setenv(BUDGET_ENV, "500")
    assert default_budget("orient") == 500
    assert default_budget("search") == 500
    monkeypatch.setenv(BUDGET_ENV, "notanint")
    with pytest.raises(InvalidParams):
        default_budget("orient")
    monkeypatch.setenv(BUDGET_ENV, "0")
    with pytest.raises(InvalidParams):
        default_budget("search")
    monkeypatch.delenv(BUDGET_ENV)
    with pytest.raises(InvalidParams):
        default_budget("mystery")


def test_seed_list_forms():
    cfg = dict(BOOST_CFG)
    cfg["seeds"] = {"start": 5, "count": 2}
    report = run_experiment(cfg)
    assert [r["seed"] for r in report.rows] == [5, 6]
    cfg["seeds"] = [9, 4]
    report = run_experiment(cfg)
    assert [r["seed"] for r in report.rows] == [4, 9]
