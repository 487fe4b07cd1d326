import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from apsum import cli, strong_means
from apsum.cli import main
from apsum.experiment import ExperimentConfig, run

from conftest import PREFIX_RTOL

ROOT = Path(__file__).resolve().parent.parent


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
@pytest.mark.parametrize(
    "field, value",
    [
        ("q", []),
        ("x", []),
        ("x_samples", 0),
        ("blowup_head", -3),
        ("n_range", [5, 2]),
        ("blowup_head", 100),
    ],
)
def test_config_that_checks_nothing_exit_2(tmp_path, capsys, command, field, value):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"spectrum": {"builtin": "smooth"}, field: value}))
    assert main([command, str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == field


@pytest.mark.parametrize("command", ["validate", "verify", "report"])
@pytest.mark.parametrize(
    "field, value", [("x", "[Infinity]"), ("x", "[NaN]"), ("output", "123"), ("output", '["a"]')]
)
def test_non_finite_x_or_non_string_output_exit_2(tmp_path, capsys, command, field, value):
    # an infinite x raised a math domain error, a NaN x printed NaN as a
    # max_ratio, and a non-string output failed in report's path join
    path = tmp_path / "bad.json"
    path.write_text(f'{{"spectrum": {{"builtin": "smooth"}}, "{field}": {value}}}')
    assert main([command, str(path)]) == 2
    assert one_error_object(capsys)["field"] == field


@pytest.mark.parametrize("command", ["validate", "verify", "report"])
def test_default_blowup_head_below_n_range_exit_2(tmp_path, capsys, command):
    # with no n <= 8 in the sweep the blow-up head is empty
    path = tmp_path / "late.json"
    path.write_text(json.dumps({"spectrum": {"builtin": "smooth"}, "n_range": [10, 64]}))
    assert main([command, str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == "blowup_head" and "default is 8" in out["error"]


@pytest.mark.parametrize("command", ["validate", "verify", "report"])
@pytest.mark.parametrize("field, value", [("x_samples", 2.7), ("blowup_head", 3.9)])
def test_non_integer_count_exit_2(tmp_path, capsys, command, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spectrum": {"builtin": "smooth"}, field: value}))
    assert main([command, str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == field


@pytest.mark.parametrize("command", ["validate", "verify", "report"])
@pytest.mark.parametrize(
    "grid",
    [
        '{"u_samples": 2.5}',
        '{"u_span": 0}',
        '{"u_span": -1}',
        '{"window_length": 1e400}',
        '{"refine": "no"}',
        '{"gl_nodes": 8}',
        '{"panels_per_window": 16}',
    ],
)
def test_bad_grid_exit_2(tmp_path, capsys, command, grid):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"spectrum": {"builtin": "smooth"}, "theorem": "thm2", '
        '"matrix": {"builtin": "cesaro"}, "grid": ' + grid + "}"
    )
    assert main([command, str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["field"] == "grid"


@pytest.mark.parametrize("command", ["validate", "verify", "report"])
@pytest.mark.parametrize("key, value", [("gl_nodes", 8), ("panels_per_window", 16)])
def test_old_report_echo_exit_2(tmp_path, capsys, smooth_config, command, key, value):
    # a report's config echo runs as a config; one written while the window
    # rule could still be set names a grid field that no longer exists
    assert main(["report", str(smooth_config), "--out", str(tmp_path / "out")]) == 0
    echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    assert main([command, str(path)]) == 0
    echo["grid"][key] = value
    path.write_text(json.dumps(echo))
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["field"] == "grid"


def test_count_beyond_float_range_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"spectrum": {"builtin": "smooth"}, "x_samples": 1' + "0" * 400 + "}")
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["field"] == "x_samples"


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
    cfg.write_text(json.dumps({"spectrum": {"file": "spec.json"}, "n_range": [1, 4], "blowup_head": 4}))
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


def test_classes_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text("{bad")
    assert main(["classes", str(path)]) == 2
    out = one_error_object(capsys)
    assert out["field"] is None
    assert "not valid JSON" in out["error"]


@pytest.mark.parametrize(
    "matrix",
    [
        {"type": "riesz", "params": []},
        {"type": "explicit", "rows": 5},
        {"type": "riesz", "params": {"exponent": "x"}},
        {"type": "explicit"},
        {"type": "explicit", "rows": [[1.0], ["NaN", 1.0]]},
    ],
)
def test_classes_malformed_matrix_exit_2(tmp_path, capsys, matrix):
    # each ended in a traceback, and the NaN row passed every class check
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(matrix).replace('"NaN"', "NaN"))
    assert main(["classes", str(path), "--n-range", "0", "1"]) == 2
    assert one_error_object(capsys)["field"] is None


@pytest.mark.parametrize("lo, hi", [(5, 2), (-3, 2)])
def test_classes_empty_n_range_exit_2(cesaro_file, capsys, lo, hi):
    # rows lo..hi would check no row (or a row that does not exist)
    assert main(["classes", str(cesaro_file), "--n-range", str(lo), str(hi)]) == 2
    assert one_error_object(capsys)["field"] == "n_range"


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
        "blowup_head": 4,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["strong-mean", str(path)]) == 0
    table = capsys.readouterr().out
    lines = table.strip().splitlines()
    assert lines[0] == "x,q,n,strong_mean"
    assert len(lines) == 6
    # --out holds the same table, over a longer file already there
    out = tmp_path / "means.csv"
    out.write_text("x" * (2 * len(table)))
    assert main(["strong-mean", str(path), "--out", str(out)]) == 0
    assert out.read_text() == table and capsys.readouterr().out == ""


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


def no_sweep(cfg):
    raise AssertionError("a sweep ran before an unusable path was refused")


def one_error_object(capsys) -> dict:
    """The exit-2 output: one JSON object on stdout, nothing on stderr."""
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert set(out) == {"ok", "field", "error"} and out["ok"] is False
    assert captured.err == ""
    return out


COMMANDS = ["validate", "verify", "report", "strong-mean"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "field, value",
    [
        ("c", "1e400"),
        ("max_ratio", "NaN"),
        ("max_ratio", "-1"),
        ("blowup_factor", "NaN"),
        ("blowup_factor", "-1"),
        ("side_tol", "NaN"),
    ],
)
def test_bad_verdict_value_exit_2(tmp_path, capsys, command, field, value):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"spectrum": {"builtin": "smooth"}, "theorem": "thm5", "matrix": {"builtin": "osc-gm2"}, '
        f'"n_range": [1, 8], "{field}": {value}}}'
    )
    assert main([command, str(path)]) == 2
    assert one_error_object(capsys)["field"] == field


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "majorant",
    [
        '{"type": "power", "C": 1e400}',
        '{"type": "power", "C": NaN}',
        '{"type": "table", "knots": [[0, 0], [1, 1e400]]}',
        '{"type": "table", "knots": [[0, 0], [1, NaN]]}',
        '{"type": "table", "knots": [[0, 0], [1, 1], [1e400, 1]]}',
    ],
)
def test_non_finite_majorant_exit_2(tmp_path, capsys, command, majorant):
    # an infinite majorant made every ratio 0 and passed verify; a NaN one
    # flagged every record infinite-ratio and exited 3
    path = tmp_path / "bad.json"
    path.write_text(
        '{"spectrum": {"builtin": "smooth"}, "theorem": "thm5", "matrix": {"builtin": "osc-gm2"}, '
        f'"n_range": [1, 8], "majorant": {majorant}}}'
    )
    assert main([command, str(path)]) == 2
    assert one_error_object(capsys)["field"] == "majorant"


@pytest.mark.parametrize("command", COMMANDS)
def test_infinite_osc_gm2_c_exit_2(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"spectrum": {"builtin": "smooth"}, "theorem": "thm5", '
        '"matrix": {"builtin": "osc-gm2", "params": {"c": 1e400}}, "n_range": [1, 8]}'
    )
    assert main([command, str(path)]) == 2
    assert one_error_object(capsys)["field"] == "matrix"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", ['{"exponent": "inf"}', '{"weights": [1.0, "inf", 1.0]}'])
@pytest.mark.parametrize("command", COMMANDS)
def test_infinite_riesz_exponent_exit_2(tmp_path, capsys, command, params):
    # row 1 summed to nan, and with weights printed a RuntimeWarning
    path = tmp_path / "bad.json"
    path.write_text(
        '{"spectrum": {"builtin": "smooth"}, "theorem": "thm6", '
        f'"matrix": {{"builtin": "riesz", "params": {params}}}, "n_range": [1, 8]}}'
    )
    assert main([command, str(path)]) == 2
    out = one_error_object(capsys)
    assert out["field"] == "matrix" and f"{next(iter(json.loads(params)))} must be finite" in out["error"]


@pytest.mark.filterwarnings("error")
def test_overflowing_riesz_weights_give_cesaro_rows(tmp_path, capsys):
    # the prefix sums of 1e308 overflowed: row 1 summed to 0.0, exit 2
    # with a RuntimeWarning; each row now divides by its largest weight
    # first, on the dense table, and the Cesaro rows take the prefix route
    outs = []
    for name, matrix in (("big", {"type": "riesz", "params": {"weights": [1e308] * 40}}), ("ces", {"builtin": "cesaro"})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"spectrum": {"builtin": "smooth"}, "theorem": "thm6", "matrix": matrix, "n_range": [1, 32]}))
        assert main(["verify", str(path)]) == 0
        outs.append((json.loads(capsys.readouterr().out), run(ExperimentConfig.from_file(path)).records))
    (big, big_records), (ces, ces_records) = outs
    assert big["records"] == 32 and big == dict(ces, max_ratio=pytest.approx(ces["max_ratio"], rel=PREFIX_RTOL))
    assert [(r.x, r.q, r.n, r.flags) for r in big_records] == [(r.x, r.q, r.n, r.flags) for r in ces_records]
    for side in ("lhs", "rhs", "ratio"):
        got, want = ([getattr(r, side) for r in records] for records in (big_records, ces_records))
        assert got == pytest.approx(want, rel=PREFIX_RTOL, abs=0.0)


def test_large_riesz_exponent_runs(tmp_path, capsys):
    # 35^200 overflows; row 34 summed to nan and the config exited 2
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"spectrum": {"builtin": "smooth"}, "theorem": "thm6", '
        '"matrix": {"builtin": "riesz", "params": {"exponent": 200.0}}, "n_range": [1, 128]}'
    )
    assert main(["verify", str(path)]) in (0, 3)
    assert json.loads(capsys.readouterr().out)["records"] == 128


@pytest.mark.parametrize(
    "argv",
    [
        ["--class", "gm2", "--c", "inf"],
        ["--c", "inf"],
        ["--class", "gm2", "--c", "1"],
        ["--c", "nan"],
        ["--threshold", "nan"],
        ["--class", "ms", "--threshold", "nan"],
        ["--threshold", "inf"],
        ["--threshold=-inf"],
    ],
)
def test_classes_bad_c_or_threshold_exit_2(cesaro_file, capsys, argv):
    # each threshold ran and exited 0; a NaN threshold printed "threshold":
    # NaN, and an infinite one "threshold": Infinity, making every class a
    # member; a c outside (1, inf) exited 2 with "field": null
    assert main(["classes", str(cesaro_file), *argv]) == 2
    field = "threshold" if any(a.startswith("--threshold") for a in argv) else "c"
    assert one_error_object(capsys)["field"] == field


@pytest.mark.parametrize("cls", ["ms", "rbvs", "gm"])
def test_classes_c_that_no_constant_reads_exit_2(cesaro_file, capsys, cls):
    # only the gm2 constant reads c: --class ms --c 5 ran and exited 0
    assert main(["classes", str(cesaro_file), "--class", cls, "--c", "5"]) == 2
    assert one_error_object(capsys)["field"] == "c"
    for argv in (["--class", cls, "--c", "2"], ["--class", "gm2", "--c", "5"], ["--c", "5"]):
        assert main(["classes", str(cesaro_file), *argv]) == 0


@pytest.mark.filterwarnings("error")
def test_classes_huge_gm2_c_warns_nothing(tmp_path, capsys):
    # floor(c m) overflowed in the gm2 window and printed a RuntimeWarning
    path = tmp_path / "mat.json"
    path.write_text('{"type": "osc-gm2", "params": {"c": 1e308}}')
    assert main(["classes", str(path), "--class", "gm2", "--c", "1e308"]) == 0
    out = json.loads(capsys.readouterr().out)["classes"]["gm2"]
    assert out["c"] == 1e308 and out["member"] is True


def test_classes_infinite_osc_gm2_c_exit_2(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text('{"type": "osc-gm2", "params": {"c": 1e400}}')
    assert main(["classes", str(path)]) == 2
    assert one_error_object(capsys)["field"] is None


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", ["builtin", "type"])
def test_malformed_matrix_params_exit_2(tmp_path, capsys, command, key):
    path = tmp_path / "bad.json"
    cfg = {
        "spectrum": {"builtin": "smooth"},
        "theorem": "thm6",
        "matrix": {key: "riesz", "params": "abc"},
    }
    path.write_text(json.dumps(cfg))
    assert main([command, str(path)]) == 2
    out = one_error_object(capsys)
    assert out["field"] == "matrix" and "params must be an object" in out["error"]


@pytest.mark.parametrize("command", COMMANDS)
def test_non_finite_amplitude_exit_2(tmp_path, capsys, command):
    # a NaN coefficient ran and printed an infinite max_ratio
    path = tmp_path / "bad.json"
    path.write_text(
        '{"spectrum": {"alpha": 1.0, "entries": [{"lambda": 1.0, "cos": NaN}]}, '
        '"theorem": "thm6", "matrix": {"builtin": "cesaro"}}'
    )
    assert main([command, str(path)]) == 2
    out = one_error_object(capsys)
    assert out["field"] == "spectrum" and "amplitude[0]" in out["error"]
    if command == "validate":
        assert main([command, str(path), "--allow-invalid"]) == 0
        issues = json.loads(capsys.readouterr().out)["spectrum_issues"]
        assert [i["code"] for i in issues] == ["amplitude"]


@pytest.mark.parametrize("command", COMMANDS)
def test_matrix_without_sweep_row_exit_2(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    riesz = {"type": "riesz", "params": {"weights": [1.0, 1.0]}}
    cfg = {
        "spectrum": {"builtin": "smooth"},
        "theorem": "thm6",
        "matrix": riesz,
        "n_range": [1, 4],
        "blowup_head": 4,
    }
    path.write_text(json.dumps(cfg))
    assert main([command, str(path)]) == 2
    out = one_error_object(capsys)
    assert out["field"] == "matrix" and "row 2" in out["error"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("theorem", ["prop4", "thm5", "thm6"])
def test_grid_outside_thm2_exit_2(tmp_path, capsys, command, theorem):
    path = tmp_path / "bad.json"
    cfg = {
        "spectrum": {"builtin": "smooth"},
        "theorem": theorem,
        "matrix": {"builtin": "cesaro"},
        "n_range": [1, 4],
        "blowup_head": 4,
        "grid": {"u_samples": 64},
    }
    path.write_text(json.dumps(cfg))
    assert main([command, str(path)]) == 2
    assert one_error_object(capsys)["field"] == "grid"


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_opens_the_spectrum_once(tmp_path, capsys, monkeypatch, command):
    from apsum import experiment

    (tmp_path / "spec.json").write_text(
        json.dumps({"alpha": 1.0, "entries": [{"lambda": 1.0, "cos": 1.0}]})
    )
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "spectrum": {"file": "spec.json"},
                "theorem": "thm6",
                "matrix": {"builtin": "cesaro"},
                "n_range": [1, 4],
                "blowup_head": 4,
            }
        )
    )
    loads = []
    load = experiment.load_spectrum
    monkeypatch.setattr(
        experiment, "load_spectrum", lambda *a, **k: loads.append(a) or load(*a, **k)
    )
    extra = ["--out", str(tmp_path / "out")] if command == "report" else []
    assert main([command, str(path), *extra]) == 0
    assert len(loads) == 1


def test_strong_mean_out_missing_dir_exit_2(tmp_path, capsys, monkeypatch):
    # refused before the table is built
    monkeypatch.setattr(cli, "strong_mean_table", no_sweep)
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {"spectrum": {"builtin": "smooth"}, "theorem": "thm6", "matrix": {"builtin": "cesaro"}}
        )
    )
    out = tmp_path / "missing" / "means.csv"
    assert main(["strong-mean", str(path), "--out", str(out)]) == 2
    assert one_error_object(capsys)["field"] is None
    assert not out.parent.exists()


@pytest.mark.parametrize("config, field", [({"alpha": 3.0}, "alpha"), ({"matrix": None}, "matrix")])
def test_strong_mean_bad_config_leaves_out(tmp_path, capsys, config, field):
    # a config refused on load (alpha) or by the table (no matrix) names its
    # field; an existing --out keeps its content and a new one is not made
    cfg = tmp_path / "cfg.json"
    data = {"spectrum": {"builtin": "smooth"}, "theorem": "thm6", "matrix": {"builtin": "cesaro"}}
    data.update(config)
    cfg.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("keep")
    for out in (old, new):
        assert main(["strong-mean", str(cfg), "--out", str(out)]) == 2
        assert one_error_object(capsys)["field"] == field
    assert old.read_text() == "keep" and not new.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["validate", "{bad}"], "alpha"),
        (["verify", "{bad}"], "alpha"),
        (["verify", "{ok}", "--theorem", "thm6"], "matrix"),
        (["report", "{bad}"], "alpha"),
        (["strong-mean", "{bad}"], "alpha"),
        (["strong-mean", "{ok}"], "matrix"),
        (["classes", "{mat}"], None),
        (["report", "{missing}"], None),
    ],
)
def test_every_exit_2_is_one_json_object(tmp_path, capsys, argv, field):
    files = {
        "bad": {"spectrum": {"builtin": "smooth"}, "alpha": 3.0},
        "ok": {"spectrum": {"builtin": "smooth"}},
        "mat": {"type": "diagonal"},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    paths = {name: str(tmp_path / f"{name}.json") for name in [*files, "missing"]}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert one_error_object(capsys)["field"] == field


@pytest.mark.parametrize(
    "argv, config, field",
    [
        (["report", "{cfg}", "--out", "{file}"], {}, None),
        (["report", "{cfg}"], {"output": "{file}"}, "output"),
        (["report", "{cfg}", "--out", "{file}/report"], {}, None),
        (["report", "{cfg}"], {"output": "{file}/report"}, "output"),
        (["strong-mean", "{cfg}", "--out", "{file}/means.csv"], {}, None),
        (["strong-mean", "{cfg}", "--out", "{dir}"], {}, None),
        (["verify", "{dir}"], {}, None),
        (["classes", "{dir}"], {}, None),
        (["verify", "{cfg}"], {"spectrum": {"file": "."}}, "spectrum"),
        (["verify", "{cfg}"], {"matrix": {"file": "."}}, "matrix"),
    ],
    ids=[
        "report-out-file", "output-file", "report-out-below-file", "output-below-file",
        "out-below-file", "out-dir", "verify-dir", "classes-dir", "spectrum-dir", "matrix-dir",
    ],
)
def test_unusable_path_exit_2(tmp_path, capsys, monkeypatch, argv, config, field):
    # an existing file where a directory goes, or a directory where a file
    # goes, exits 2 like a missing file; only a config field names itself.
    # Each is refused before a sweep runs.
    monkeypatch.setattr(cli, "run", no_sweep)
    monkeypatch.setattr(cli, "strong_mean_table", no_sweep)
    paths = {"file": str(tmp_path / "taken"), "dir": str(tmp_path / "dir"), "cfg": str(tmp_path / "cfg.json")}
    Path(paths["file"]).write_text("")
    Path(paths["dir"]).mkdir()
    cfg = {"spectrum": {"builtin": "smooth"}, "theorem": "thm6", "matrix": {"builtin": "cesaro"}, "n_range": [1, 8]}
    cfg.update({k: v.format(**paths) if isinstance(v, str) else v for k, v in config.items()})
    Path(paths["cfg"]).write_text(json.dumps(cfg))
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert one_error_object(capsys)["field"] == field
    assert Path(paths["file"]).read_text() == ""


# Runs in a fresh interpreter: every CLI call of the configs, then the
# scipy and numpy.fft modules loaded, then one kernel-route call and the
# modules again.
SCIPY_FREE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

import apsum
from apsum.cli import main
from apsum.experiment import ExperimentConfig, run
from apsum.experiment import ExperimentConfig


def lazy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.fft"))


loaded, codes = lazy_modules(), {}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for cfg in sorted(Path(sys.argv[1]).glob("*.json")):
        out = Path(tmp) / cfg.stem
        codes[cfg.name] = [main(["report", str(cfg), "--out", str(out)])]
        if ExperimentConfig.from_file(cfg).matrix is not None:
            table = str(out) + "-strong-mean.csv"
            codes[cfg.name].append(main(["strong-mean", str(cfg), "--out", table]))
run = lazy_modules()
mass = apsum.kernel_mass(1.0, 3)
print(json.dumps(
    {"import": loaded, "codes": codes, "run": run, "kernel": lazy_modules(), "mass": mass}
))
"""


def test_run_path_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE, str(ROOT / "configs")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["import"] == []
    codes = out["codes"]
    assert len(codes) == len(list((ROOT / "configs").glob("*.json"))) >= 4
    # report exits 0 (or 3 on a failed regression), strong-mean 0 where
    # the config has a matrix
    assert all(c[0] in (0, 3) and c[1:] in ([], [0]) for c in codes.values())
    assert sum(len(c) for c in codes.values()) > len(codes)
    assert out["run"] == []
    assert {"scipy.special", "numpy.fft"} <= set(out["kernel"])
    assert out["mass"] == pytest.approx(0.5, abs=1e-6)


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def strict_lines(capsys) -> list:
    return [strict_json(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_commands_write_strict_json(config, tmp_path, capsys):
    # every stdout line and every .json file the commands write on a shipped
    # config (and classes on its matrix) parses as strict JSON
    out = tmp_path / "out"
    assert main(["validate", str(config)]) == 0
    assert main(["verify", str(config)]) == 0
    assert main(["report", str(config)]) == 0
    assert main(["report", str(config), "--out", str(out)]) == 0
    matrix = json.loads(config.read_text()).get("matrix")
    if matrix is not None:
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"type": matrix["builtin"], "params": matrix.get("params", {})}))
        assert main(["classes", str(path), "--n-range", "0", "32"]) == 0
    assert len(strict_lines(capsys)) == 4 + (matrix is not None)
    for path in out.glob("*.json"):
        strict_json(path.read_text())


def test_classes_infinite_constant_is_null(tmp_path, capsys):
    # row 0 grows out of a zero weight: its ms and rbvs constants are the
    # inf sentinel, which printed as "sup_constant": Infinity
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"type": "explicit", "rows": [[0, 1], [0.5, 0.5]]}))
    assert main(["classes", str(path), "--n-range", "0", "1"]) == 0
    (out,) = strict_lines(capsys)
    for name in ("ms", "rbvs"):
        assert out["classes"][name]["sup_constant"] is None
        assert out["classes"][name]["member"] is False
    assert out["classes"]["gm"]["sup_constant"] == 1.0


@pytest.mark.parametrize("command", ["verify", "report"])
def test_run_that_checks_nothing_exit_3(tmp_path, capsys, command):
    # the constant function against a zero majorant: every record is 0/0,
    # which passed with regression_ok true and exit 0
    cfg = {
        "spectrum": {"builtin": "constant"},
        "theorem": "thm6",
        "matrix": {"builtin": "cesaro"},
        "majorant": {"type": "power", "C": 0.0},
        "n_range": [1, 8],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, str(path)]) == 3
    (out,) = strict_lines(capsys)
    summary = out if command == "verify" else out["summary"]
    assert summary["regression_ok"] is False
    assert summary["flag_counts"] == {"zero-over-zero": 8}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "theorem, field, value",
    [
        ("prop4", "c", "2.5"),
        ("thm6", "c", "3"),
        ("thm2", "thm5_literal_exponent", "true"),
        ("thm2", "majorant", '{"type": "bogus"}'),
        ("thm2", "majorant", '{"type": "fit"}'),
        ("prop4", "x_samples", "8"),
        ("thm5", "x_samples", "32"),
        ("thm6", "x_samples", "1"),
        ("prop4", "side_tol", "0.0"),
        ("thm6", "spectrum", '{"alpha": 1, "entries": [{"lambda": 1, "cos": 1, "sine": 3}]}'),
        ("thm5", "matrix", '{"builtin": "osc-gm2", "params": {"cc": 3}}'),
        ("thm6", "matrix", '{"builtin": "cesaro", "params": {"c": 3}}'),
        ("thm6", "matrix", '{"builtin": "cesaro", "file": "x.json"}'),
        ("thm6", "majorant", '{"type": "power", "C": 1, "gama": 0.5}'),
        ("thm6", "majorant", '{"type": "fit", "cont": 3}'),
        ("thm6", "majorant", '{"type": "fit", "C": 3}'),
    ],
)
def test_field_the_theorem_never_reads_exit_2(tmp_path, capsys, command, theorem, field, value):
    # each ran and exited 0 (a bogus thm2 majorant too) although no bound read it
    path = tmp_path / "bad.json"
    path.write_text(
        f'{{"spectrum": {{"builtin": "smooth"}}, "theorem": "{theorem}", '
        f'"matrix": {{"builtin": "cesaro"}}, "n_range": [1, 8], "{field}": {value}}}'
    )
    assert main([command, str(path)]) == 2
    assert one_error_object(capsys)["field"] == field


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("theorem", ["prop4", "thm5", "thm6"])
def test_p_with_a_given_majorant_exit_2(tmp_path, capsys, command, theorem):
    # a given majorant is not fitted, so nothing reads p: the run matched
    # the one at the default p
    cfg = {
        "spectrum": {"builtin": "smooth"},
        "theorem": theorem,
        "matrix": {"builtin": "cesaro"},
        "majorant": {"type": "power", "C": 1.0},
        "n_range": [1, 8],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, p=2.0)))
    assert main(["validate", str(path)]) == 0
    path.write_text(json.dumps(dict(cfg, p=3.0)))
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    assert one_error_object(capsys)["field"] == "p"


def test_verify_theorem_override_of_report_echo(tmp_path, capsys):
    # a thm5 report's echo carries the default c, literal switch and
    # majorant, so verify --theorem runs it as any theorem
    cfg = {"spectrum": {"builtin": "smooth"}, "theorem": "thm5", "matrix": {"builtin": "cesaro"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, n_range=[1, 8])))
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    echo = tmp_path / "out" / "report.json"
    path.write_text(json.dumps(json.loads(echo.read_text())["config"]))
    for theorem in ("prop4", "thm2", "thm5", "thm6"):
        assert main(["verify", str(path), "--theorem", theorem]) == 0
        assert strict_lines(capsys)[0]["theorem"] == theorem


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("c", ["1023", "1e308"])
@pytest.mark.parametrize("literal", ["false", "true"])
def test_thm5_huge_c_runs(tmp_path, capsys, command, c, literal):
    # 2.0 ** (1 + floor(c)) raised OverflowError and the command exited 1
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"spectrum": {"builtin": "smooth"}, "theorem": "thm5", "matrix": {"builtin": "cesaro"}, '
        f'"n_range": [1, 8], "c": {c}, "thm5_literal_exponent": {literal}}}'
    )
    assert main([command, str(path)]) == 0
    (out,) = strict_lines(capsys)
    assert (out if command == "verify" else out["summary"])["regression_ok"] is True


@pytest.mark.parametrize("theorem, p", [("thm2", "1000"), ("thm6", "600")])
def test_large_finite_p_runs(tmp_path, capsys, theorem, p):
    # thm2 at p = 1000 printed "max_ratio": Infinity and exited 3; thm6 with
    # a fitted majorant at p = 600 exited 1 with "knots must be finite"
    path = tmp_path / "cfg.json"
    path.write_text(
        f'{{"spectrum": {{"builtin": "smooth"}}, "theorem": "{theorem}", '
        f'"matrix": {{"builtin": "cesaro"}}, "n_range": [1, 8], "p": {p}}}'
    )
    assert main(["verify", str(path)]) == 0
    (summary,) = strict_lines(capsys)
    assert summary["flag_counts"] == {} and math.isfinite(summary["max_ratio"])


@pytest.mark.parametrize("command", ["verify", "report", "report-out"])
def test_infinite_ratio_is_null(tmp_path, capsys, monkeypatch, command):
    # with every bracket 0 each finite lhs is over a zero rhs (no valid
    # config reaches one, as the tail mass bounds each deviation), whose
    # ratio inf printed as "max_ratio": Infinity
    monkeypatch.setattr(strong_means, "_brackets", lambda w, f, factor, size: np.zeros(size))
    cfg = {
        "spectrum": {"builtin": "smooth"},
        "theorem": "thm6",
        "matrix": {"builtin": "cesaro"},
        "n_range": [1, 8],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = ["report", str(path), "--out", str(out)] if command == "report-out" else [command, str(path)]
    assert main(argv) == 3
    (line,) = strict_lines(capsys)
    report = strict_json((out / "report.json").read_text()) if command == "report-out" else line
    summary = report if command == "verify" else report["summary"]
    assert summary["max_ratio"] is None
    assert summary["flag_counts"] == {"infinite-ratio": 8}
    assert summary["regression_ok"] is False
    if command != "verify":
        assert {r["ratio"] for r in report["records"]} == {None}
        assert all(r["flags"] == ["infinite-ratio"] for r in report["records"])
        assert all(r["lhs"] > 0.0 and r["rhs"] == 0.0 for r in report["records"])


def test_infinite_config_number_echoes_as_inf(tmp_path, capsys):
    # an infinite p or max_ratio is a valid config; its echo in report.json
    # is the string "inf", which runs again as the same config
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"spectrum": {"builtin": "smooth"}, "theorem": "thm2", "matrix": {"builtin": "cesaro"}, '
        '"n_range": [1, 8], "x_samples": 4, "p": Infinity, "max_ratio": Infinity}'
    )
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    echo = strict_json((tmp_path / "out" / "report.json").read_text())["config"]
    assert (echo["p"], echo["max_ratio"]) == ("inf", "inf")
    assert main(["verify", str(path)]) == 0
    path.write_text(json.dumps(echo))
    assert main(["verify", str(path)]) == 0
    first, again = strict_lines(capsys)
    assert first == again


def test_infinite_q_echoes_as_inf(tmp_path, capsys):
    # q = inf (the max) is a valid config number; verify, report and the
    # written report.json carry it as "inf", and the echo runs again
    path = tmp_path / "cfg.json"
    path.write_text('{"spectrum": {"builtin": "smooth"}, "q": ["inf"], "n_range": [8, 16]}')
    out = tmp_path / "out"
    codes = [main(["verify", str(path)]), main(["report", str(path)])]
    codes.append(main(["report", str(path), "--out", str(out)]))
    assert set(codes) <= {0, 3}
    summary, report, written = strict_lines(capsys)
    assert summary["argmax"]["q"] == "inf"
    assert report["summary"] == summary
    assert {r["q"] for r in report["records"]} == {"inf"}
    assert strict_json((out / "report.json").read_text()) == report
    assert written["written"][0] == str(out / "report.json")
    path.write_text(json.dumps(report["config"]))
    assert main(["verify", str(path)]) == codes[0]
    assert strict_lines(capsys) == [summary]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "theorem, field, value",
    [
        ("thm2", "x_samples", "true"),
        ("thm6", "max_ratio", "true"),
        ("thm6", "blowup_head", "true"),
        ("thm6", "n_range", "[true, 8]"),
        ("thm2", "p", '"3"'),
        ("thm6", "q", '"2"'),
        ("thm6", "x", '["0.5"]'),
        ("thm6", "alpha", '"1"'),
        ("thm6", "side_tol", '"0.1"'),
        ("thm6", "majorant", '{"type": "fit", "count": true}'),
        ("thm6", "majorant", '{"type": "fit", "top": "3"}'),
        ("thm6", "spectrum", '{"alpha": 1, "entries": [{"lambda": true, "cos": 1}]}'),
        ("thm6", "spectrum", '{"alpha": 1, "entries": [{"lambda": 1, "cos": "1"}]}'),
        ("thm6", "spectrum", '{"alpha": true, "entries": [{"lambda": 1, "cos": 1}]}'),
        ("thm5", "matrix", '{"builtin": "osc-gm2", "params": {"c": "3"}}'),
        ("thm6", "matrix", '{"type": "riesz", "params": {"exponent": true}}'),
        ("thm6", "matrix", '{"type": "riesz", "params": {"weights": [1, "1", 1, 1, 1, 1, 1, 1, 1]}}'),
        ("thm6", "matrix", '{"type": "explicit", "rows": [[true], [1], [1], [1], [1], [1], [1], [1], [1]]}'),
        ("thm6", "majorant", '{"type": "power", "C": "1"}'),
        ("thm6", "majorant", '{"type": "table", "knots": [[0, 0], [1, true]]}'),
    ],
)
def test_bool_or_numeric_string_exit_2(tmp_path, capsys, command, theorem, field, value):
    # each ran, true as 1 and "3" as 3.0; a config number is a JSON number
    # (or the "inf" a report echo writes)
    path = tmp_path / "bad.json"
    path.write_text(
        f'{{"spectrum": {{"builtin": "smooth"}}, "theorem": "{theorem}", '
        f'"matrix": {{"builtin": "cesaro"}}, "n_range": [1, 8], "{field}": {value}}}'
    )
    assert main([command, str(path)]) == 2
    assert one_error_object(capsys)["field"] == field


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("field", ["spectrum", "matrix"])
@pytest.mark.parametrize(
    "source",
    [
        {"builtin": "nope"},
        {"file": "missing.json"},
        {"file": "bad.json"},
        "smooth",
        {"bogus": 1},
        # read as a spectrum and as a matrix alike, each reader skipping the other's keys
        {"type": "cesaro", "alpha": 1.0, "entries": [{"lambda": 1.0, "cos": 1.0}]},
    ],
    ids=["unknown-builtin", "missing-file", "bad-json", "not-an-object", "malformed-inline", "foreign-keys"],
)
def test_bad_source_exit_2(tmp_path, capsys, command, field, source):
    # the spectrum and the matrix are read by one resolver, so each bad
    # source exits 2 naming its field
    (tmp_path / "bad.json").write_text("{bad")
    cfg = {
        "spectrum": {"builtin": "smooth"},
        "theorem": "thm6",
        "matrix": {"builtin": "cesaro"},
        "n_range": [1, 8],
        field: source,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, str(path)]) == 2
    assert one_error_object(capsys)["field"] == field
