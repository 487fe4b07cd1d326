import json

import pytest

from apsum.cli import main


@pytest.fixture()
def smooth_config(tmp_path):
    cfg = {
        "spectrum": {"builtin": "smooth"},
        "theorem": "prop4",
        "q": [1.0],
        "x": [0.0],
        "n_range": [1, 8],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def cesaro_file(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"type": "cesaro"}))
    return path


def test_validate_ok(smooth_config, capsys):
    assert main(["validate", str(smooth_config)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_validate_names_bad_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spectrum": {"builtin": "smooth"}, "alpha": 3.0}))
    assert main(["validate", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == "alpha"


def test_verify_non_numeric_field_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spectrum": {"builtin": "smooth"}, "c": "x"}))
    assert main(["verify", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == "c"


@pytest.mark.parametrize("command", ["validate", "verify", "report"])
def test_bad_fit_majorant_exit_2(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"spectrum": {"builtin": "smooth"}, "majorant": {"type": "fit", "count": 2.7}})
    )
    assert main([command, str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == "majorant"


@pytest.mark.parametrize("command", ["validate", "verify", "report"])
@pytest.mark.parametrize("field, value", [("q", []), ("x", []), ("x_samples", 0)])
def test_config_that_checks_nothing_exit_2(tmp_path, capsys, command, field, value):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"spectrum": {"builtin": "smooth"}, field: value}))
    assert main([command, str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == field


def test_validate_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_validate_allow_invalid_reports_issues(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "alpha": 1.0,
                "entries": [{"lambda": 1.0, "cos": 1.0}, {"lambda": 1.5, "cos": 1.0}],
            }
        )
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spectrum": {"file": "spec.json"}, "n_range": [1, 4]}))
    assert main(["validate", str(cfg)]) == 2
    capsys.readouterr()
    assert main(["validate", str(cfg), "--allow-invalid"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert any(i["code"] == "gap" for i in out["spectrum_issues"])


def test_classes_command(cesaro_file, capsys):
    assert main(["classes", str(cesaro_file), "--class", "ms", "--threshold", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classes"]["ms"]["member"] is True


def test_classes_all_default(cesaro_file, capsys):
    assert main(["classes", str(cesaro_file), "--n-range", "0", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["classes"]) == {"ms", "rbvs", "gm", "gm2"}


def test_classes_bad_file(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"type": "diagonal"}))
    assert main(["classes", str(path)]) == 2


def test_strong_mean_needs_matrix(smooth_config, capsys):
    assert main(["strong-mean", str(smooth_config)]) == 2


def test_strong_mean_table(tmp_path, capsys):
    cfg = {
        "spectrum": {"builtin": "smooth"},
        "theorem": "thm6",
        "matrix": {"builtin": "cesaro"},
        "q": [2.0],
        "x": [0.7],
        "n_range": [0, 4],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["strong-mean", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,q,n,strong_mean"
    assert len(lines) == 6


def test_verify_ok_and_override(smooth_config, capsys):
    assert main(["verify", str(smooth_config)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["theorem"] == "prop4"
    assert summary["regression_ok"] is True


def test_verify_regression_failure_exit_3(tmp_path, capsys):
    # an absurdly tight ratio cap forces the bound regression to fail
    cfg = {
        "spectrum": {"builtin": "smooth"},
        "theorem": "prop4",
        "q": [1.0],
        "x": [0.0],
        "n_range": [1, 8],
        "max_ratio": 1e-9,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 3


def test_report_writes_files(smooth_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["report", str(smooth_config), "--out", str(out_dir)]) == 0
    written = json.loads(capsys.readouterr().out)["written"]
    assert any(p.endswith("report.json") for p in written)
    assert any(p.endswith(".csv") for p in written)
    report = json.loads((out_dir / "report.json").read_text())
    assert report["summary"]["regression_ok"] is True
