"""Smoke tests for the command-line scripts, loaded by path."""

import ast
import importlib
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
    assert len(first) == 43
    for layer in ("kernels", "omega", "omega-p1.5", "omega-pinf", "moduli-pinf"):
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


def used_names(root):
    """Every ast.Name id and ast.Attribute attr read (Load context) in the
    package modules (not ``__init__.py``), the scripts, perfbench and the
    acceptance criteria; an assignment or a def does not use the name it
    binds, and strings and docstrings name nothing."""
    files = [p for p in sorted((root / "src" / "apsum").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    files.append(root / "tests" / "test_acceptance.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_used_names_counts_only_reads(tmp_path):
    # a name a module binds but nothing reads is reported unused
    for sub in ("src/apsum", "scripts", "perfbench", "tests"):
        (tmp_path / sub).mkdir(parents=True)
    (tmp_path / "src/apsum/mod.py").write_text(
        'BOUND = 1\nobj.field = 2\n\n\ndef fit():\n    """READ_IN_DOC"""\n    return obj.method()\n'
    )
    (tmp_path / "tests/test_acceptance.py").write_text("print(READ)\n")
    assert used_names(tmp_path) == {"obj", "method", "print", "READ"}


def public_names():
    """The names in each module's ``__all__`` and, per public class, the
    public callables it defines, as "name" and "Class.method"."""
    out = []
    for name in load_script("api_surface").MODULES:
        module = importlib.import_module(f"apsum.{name}")
        for attr in module.__all__:
            out.append(attr)
            obj = getattr(module, attr)
            if isinstance(obj, type):
                for member in vars(obj):
                    if not member.startswith("_") and callable(getattr(obj, member)):
                        out.append(f"{attr}.{member}")
    return out


def test_every_public_name_has_a_caller():
    # a public name that only the unit tests reach is a second way in to be
    # deleted, or a test oracle to be kept in the tests
    used = used_names(SCRIPTS.parent)
    unused = [name for name in public_names() if name.rsplit(".", 1)[-1] not in used]
    assert unused == []
