"""End-to-end runs of every CLI subcommand through main()."""

import json
import shlex
from pathlib import Path

import pytest

from listboost import InvalidParams, generalization_bound, recursive_boost
from listboost.cli import main
from tests.conftest import bench_workloads


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
    assert blob["format"] == "listboost-record/2"
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


def test_compress_bound_reports_slots_and_kappa_of_a_record(monkeypatch, tmp_path, capsys):
    # The full boost-erm seed-0 record: 349 rounds of m0 = 8 indices draw 9
    # distinct slots, so r = 2,792 and kappa = 72; epsilon comes from r.
    workloads = bench_workloads(monkeypatch)
    inp = workloads.build_boost_erm(0, 0, workloads.SIZES["boost-erm"])
    rec = tmp_path / "record.json"
    recursive_boost(inp.dataset, inp.spec, inp.config).record.dump(rec)
    assert main(["compress-bound", "--record", str(rec), "--m", "100000"]) == 0
    row = _lines(capsys)[-1]
    assert (row["r"], row["slots"], row["kappa"]) == (2792, 9, 72)
    assert row["epsilon"] == generalization_bound(2792, 100000, 0.05)
    assert main(["compress-bound", "--record", str(rec), "--m", "200"]) == 1
    row = _lines(capsys)[-1]
    assert (row["error"], row["r"], row["slots"], row["kappa"]) == ("RTooLarge", 2792, 9, 72)


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


def _experiment_row(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "parity.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["experiment", "--config", str(cfg_path)])
    rows = _lines(capsys)
    assert len(rows) == 2 and rows[-1]["aggregate"]["n_seeds"] == 1
    return rc, rows[0]


@pytest.mark.parametrize("pipeline", ["boost", "list-boost", "oig-listpac"])
def test_cli_and_experiment_run_one_path(planted_files, tmp_path, capsys, pipeline):
    data, cls = planted_files
    files = ["--data", str(data), "--class-file", str(cls), "--seed", "3"]
    dataset = {"path": str(data), "class_path": str(cls)}
    rec = tmp_path / "rec.json"
    if pipeline == "boost":
        argv = ["boost", *files, "--gamma", "0.3", "--record", str(rec)]
        cfg = {"gamma": 0.3, "learner": "erm"}
    elif pipeline == "list-boost":
        argv = ["list-boost", *files, "--k0", "2", "--eps0", "0.25", "--T", "40",
                "--delta", "0.3", "--record", str(rec)]
        cfg = {"k0": 2, "eps0": 0.25, "T": 40, "delta": 0.3}
    else:
        argv = ["oig", *files, "--listpac", "2", "--record", str(rec)]
        cfg = {"k": 2}
    cli_rc = main(argv)
    cli_row = _lines(capsys)[-1]
    if pipeline == "list-boost":
        # list-boost prints no r; compress-bound reads it off the record
        main(["compress-bound", "--record", str(rec), "--m", "40"])
        cli_row["r"] = _lines(capsys)[-1]["r"]
        cli_row["oracle_calls"] = cli_row.pop("T")
    exp_rc, row = _experiment_row(
        tmp_path, capsys, {"pipeline": pipeline, "seeds": [3], "dataset": dataset, **cfg})
    assert cli_rc == exp_rc == 0
    assert cli_row["consistent"] is row["consistent"] is True
    assert cli_row["r"] == row["r"]
    assert cli_row.get("oracle_calls") == row["oracle_calls"]


def test_zero_orientation_budget_is_a_budget_of_zero(planted_files, tmp_path, capsys):
    # --budget 0 once fell back to the default budget and ran to exit 0.
    data, cls = planted_files
    rc = main(["oig", "--class-file", str(cls), "--listpac", "2", "--data", str(data),
               "--budget", "0"])
    assert rc == 1
    assert _lines(capsys)[-1]["error"] == "BudgetExceeded"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "pipeline": "oig-listpac", "seeds": 1, "k": 2, "orient_budget": 0,
        "dataset": {"path": str(data), "class_path": str(cls)}}))
    assert main(["experiment", "--config", str(cfg_path)]) == 1
    row, aggregate = _lines(capsys)
    assert row["error"] == "BudgetExceeded" and row["passed"] is False
    assert aggregate["aggregate"]["failures"][0]["error"] == "BudgetExceeded"


@pytest.mark.parametrize("argv", [
    ["--dim", "2"],
    ["--orient", "1", "--strategy", "exhaustive"],
    ["--predict", "1", "--strategy", "exhaustive", "--query", "1"],
])
def test_oig_budget_errors_are_error_rows(planted_files, tmp_path, capsys, argv):
    data, cls = planted_files
    if argv[0] != "--dim":
        # every edge of the 3x3 grid has 3 members, so a 1-list orientation needs the search
        cls = tmp_path / "grid.json"
        cls.write_text(json.dumps({"columns": [0, 1], "alphabet": [0, 1, 2],
                                   "rows": [[a, b] for a in range(3) for b in range(3)]}))
        data = tmp_path / "grid.jsonl"
        data.write_text('{"format": "listboost-data/1", "alphabet": [0, 1, 2]}\n'
                        '{"x": 0, "y": 0}\n')
    capsys.readouterr()
    rc = main(["oig", "--class-file", str(cls), "--data", str(data), "--budget", "1", *argv])
    assert rc == 1
    rows = _lines(capsys)
    assert len(rows) == 1 and rows[0]["error"] == "BudgetExceeded"


@pytest.mark.parametrize("command", ["boost", "audit", "hint"])
def test_erm_without_a_class_is_an_error_row(planted_files, capsys, command):
    data, _ = planted_files
    capsys.readouterr()
    rc = main([command, "--data", str(data), "--learner", "erm"])
    assert rc == 1
    rows = _lines(capsys)
    assert len(rows) == 1 and rows[0]["error"] == "InvalidParams"


def _readme_cli_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI")[1].split("```sh\n")[1].split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("listboost ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # experiment is left out: test_readme_example_config_runs runs its config
    commands = [argv for argv in _readme_cli_commands() if argv[0] != "experiment"]
    assert len(commands) == 11
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
