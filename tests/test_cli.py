"""End-to-end runs of every CLI subcommand through main()."""

import json

import pytest

from listboost import InvalidParams
from listboost.cli import main


def _lines(capsys):
    return [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]


@pytest.fixture
def planted_files(tmp_path):
    data = tmp_path / "data.jsonl"
    cls = tmp_path / "class.json"
    rc = main(["gen-data", "--kind", "planted-finite-class", "--m", "40",
               "--labels", "3", "--class-size", "5", "--instances", "8",
               "--seed", "1", "--out", str(data), "--class-out", str(cls)])
    assert rc == 0
    return data, cls


def test_gen_data_counterexample(tmp_path, capsys):
    out = tmp_path / "ce.jsonl"
    rc = main(["gen-data", "--kind", "counterexample",
               "--multiplicities", "2,1,1", "--out", str(out)])
    assert rc == 0
    info = _lines(capsys)[-1]
    assert info["m"] == 4
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["format"] == "listboost-data/1"
    assert len(lines) == 5


def test_boost_roundtrip(planted_files, tmp_path, capsys):
    data, cls = planted_files
    rec = tmp_path / "record.json"
    rc = main(["boost", "--data", str(data), "--class-file", str(cls),
               "--learner", "erm", "--gamma", "0.3", "--record", str(rec)])
    assert rc == 0
    row = _lines(capsys)[-1]
    assert row["consistent"] is True
    assert row["audit_pass_rate"] == 1.0
    assert row["r"] >= 1
    blob = json.loads(rec.read_text())
    assert blob["format"] == "listboost-record/1"
    assert blob["pipeline"] == "boost"
    assert row["denominators"] == blob["meta"]["denominators"]
    assert len(row["denominators"]) == row["phases"]


def test_boost_failure_exit_code(tmp_path, capsys):
    data = tmp_path / "ce.jsonl"
    main(["gen-data", "--kind", "counterexample", "--out", str(data)])
    capsys.readouterr()
    rc = main(["boost", "--data", str(data), "--learner", "tooweak",
               "--gamma", "0.6"])
    assert rc == 1
    row = _lines(capsys)[-1]
    assert row["error"] == "PhaseFailure"


def test_hint_subcommand(planted_files, capsys):
    data, cls = planted_files
    rc = main(["hint", "--data", str(data), "--class-file", str(cls),
               "--learner", "erm", "--gamma", "0.3"])
    assert rc == 0
    row = _lines(capsys)[-1]
    assert row["covered_all"] is True
    assert row["rounds_run"] >= 1


@pytest.mark.parametrize("command", ["hint", "boost"])
@pytest.mark.parametrize("gamma", ["0", "-0.5"])
def test_out_of_range_gamma_is_reported(planted_files, capsys, command, gamma):
    data, cls = planted_files
    rc = main([command, "--data", str(data), "--class-file", str(cls),
               "--learner", "erm", "--gamma", gamma])
    assert rc == 1
    assert _lines(capsys)[-1]["error"] == "InvalidGamma"


def test_audit_rows(planted_files, capsys):
    data, cls = planted_files
    rc = main(["audit", "--data", str(data), "--class-file", str(cls),
               "--learner", "erm", "--gamma", "0.3"])
    assert rc == 0
    rows = _lines(capsys)
    audit_rows = [r for r in rows if "tag" in r]
    assert audit_rows and all(r["passed"] for r in audit_rows)
    assert audit_rows[0]["tag"].startswith("hint:")
    summary = rows[-1]
    assert summary["pass_rate"] == 1.0 and summary["audits"] == len(audit_rows)


def test_list_boost_subcommand(planted_files, tmp_path, capsys):
    data, cls = planted_files
    rec = tmp_path / "lb.json"
    rc = main(["list-boost", "--data", str(data), "--class-file", str(cls),
               "--k0", "2", "--eps0", "0.25", "--T", "40", "--delta", "0.3",
               "--record", str(rec)])
    assert rc == 0
    row = _lines(capsys)[-1]
    assert row["consistent"] is True
    assert row["size_bound"] == 4
    assert json.loads(rec.read_text())["pipeline"] == "list-boost"


def test_oig_dim_and_orient(planted_files, capsys):
    _, cls = planted_files
    rc = main(["oig", "--class-file", str(cls), "--dim", "1"])
    assert rc == 0
    assert _lines(capsys)[-1]["dimension"] >= 0

    rc = main(["oig", "--class-file", str(cls), "--orient", "1"])
    assert rc == 0
    row = _lines(capsys)[-1]
    assert row["max_out_degree"] >= 0 and row["strategy"] in (
        "exhaustive", "greedy")


def test_oig_predict(planted_files, capsys):
    data, cls = planted_files
    rc = main(["oig", "--class-file", str(cls), "--predict", "2",
               "--data", str(data), "--query", "0"])
    assert rc == 0
    row = _lines(capsys)[-1]
    assert 1 <= len(row["labels"]) <= 2


def test_oig_listpac_with_record(planted_files, tmp_path, capsys):
    data, cls = planted_files
    rec = tmp_path / "lp.json"
    rc = main(["oig", "--class-file", str(cls), "--listpac", "2",
               "--data", str(data), "--record", str(rec)])
    assert rc == 0
    row = _lines(capsys)[-1]
    assert row["consistent"] is True
    assert json.loads(rec.read_text())["pipeline"] == "oig-listpac"


def test_oig_requires_exactly_one_mode(planted_files):
    _, cls = planted_files
    with pytest.raises(SystemExit):
        main(["oig", "--class-file", str(cls)])


def test_compress_bound(capsys, tmp_path, planted_files):
    rc = main(["compress-bound", "--r", "30", "--m", "1000", "--delta", "0.05"])
    assert rc == 0
    row = _lines(capsys)[-1]
    assert row["epsilon"] == pytest.approx(0.216730299632, abs=1e-12)
    assert row["vacuous"] is False

    rc = main(["compress-bound", "--r", "60", "--m", "60"])
    assert rc == 1
    assert "error" in _lines(capsys)[-1]


def test_experiment_subcommand(tmp_path, capsys):
    cfg = {
        "pipeline": "plurality",
        "seeds": 2,
        "T": 40,
        "dataset": {"kind": "counterexample"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.jsonl"
    csv_out = tmp_path / "report.csv"
    rc = main(["experiment", "--config", str(cfg_path), "--out", str(out),
               "--csv", str(csv_out), "--stable"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["wall_time_s"] == 0.0
    assert csv_out.exists()

    rc = main(["experiment", "--config", str(cfg_path), "--set", "seeds=1",
               "--set", "T=25"])
    assert rc == 0
    summary = _lines(capsys)[-1]
    assert summary["aggregate"]["n_seeds"] == 1


def test_experiment_rejects_a_key_added_by_set(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "plurality", "seeds": 1, "T": 40,
                                    "dataset": {"kind": "counterexample"}}))
    with pytest.raises(InvalidParams,
                       match="config key 'gama' is not read by the 'plurality' pipeline"):
        main(["experiment", "--config", str(cfg_path), "--set", "gama=0.9"])


def test_experiment_failing_config_exits_nonzero(tmp_path, capsys):
    cfg = {
        "pipeline": "boost",
        "seeds": 1,
        "gamma": 0.6,
        "learner": "tooweak",
        "dataset": {"kind": "counterexample"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 1
