"""Smoke tests for the command-line scripts, loaded by path."""

import importlib.util
import json
from pathlib import Path

from apsum.measures import PowerModulus, moduli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_majorant_report(capsys):
    script = load_script("fit_majorant_report")
    assert script.main(["--spectrum", "lacunary", "--x", "0.7", "--grid", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    fit = json.loads(lines[0])
    assert fit["x"] == 0.7
    assert fit["constants"]["c1"] <= 1.0 and fit["constants"]["c2"] <= 1.0
    assert fit["window_average_violations"] == 0
    assert fit["majorant"]["type"] == "table"


def test_report_digests_repeat(capsys):
    script = load_script("report_digests")
    assert script.main() == 0
    first = capsys.readouterr().out.splitlines()
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines() == first
    names = {line.split()[1] for line in first}
    assert {"report.json", "strong-mean.csv"} <= names
    assert sum(line.startswith("matrices ") for line in first) == 6
    for layer in ("kernels", "omega"):
        assert [line.split()[1] for line in first if line.startswith(layer + " ")] == [
            "smooth",
            "lacunary",
            "irrational",
        ]
    assert all(len(line.split()[2]) == 64 for line in first)


def test_api_surface(capsys):
    script = load_script("api_surface")
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    lines_count, rows = script.surface()
    assert lines[0] == f"src lines {lines_count}"
    assert [line.split()[0] for line in lines[2:-1]] == list(script.MODULES)
    total = lines[-1].split()
    assert total[0] == "total"
    assert int(total[1]) == sum(row[1] for row in rows)
    assert int(total[2]) == sum(row[2] for row in rows)
    # a dataclass counts its fields, a function its parameters
    assert script.settable_values(PowerModulus) == 3
    assert script.settable_values(moduli) == 5
    assert script.settable_values(3.0) == 0
