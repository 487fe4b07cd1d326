#!/usr/bin/env python3
"""Print the size of apsum's public surface: the line count of the package's
source files, then per module the number of public names (its ``__all__``)
and of settable values, then the totals.

A settable value is one parameter of a callable in a module's ``__all__``,
as ``inspect.signature`` lists it: the fields of a dataclass, the arguments
of a function or of an exception.  A class whose signature ``inspect``
cannot read (an exception that keeps its base's constructor) counts 0.

Run it on two commits and compare the totals:

    PYTHONPATH=src python3 scripts/api_surface.py
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import apsum

MODULES = ("spectra", "kernels", "matrices", "measures", "strong_means", "experiment")


def settable_values(obj) -> int:
    """The parameter count of a callable, 0 for anything else."""
    if not callable(obj):
        return 0
    try:
        return len(inspect.signature(obj).parameters)
    except ValueError:  # a builtin constructor with no readable signature
        return 0


def surface() -> tuple[int, list[tuple[str, int, int]]]:
    """The package's source line count and (module, public names, settable
    values) per module."""
    package = Path(apsum.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py")))
    rows = []
    for name in MODULES:
        module = importlib.import_module(f"apsum.{name}")
        public = [getattr(module, attr) for attr in module.__all__]
        rows.append((name, len(public), sum(settable_values(obj) for obj in public)))
    return lines, rows


def main() -> int:
    lines, rows = surface()
    print(f"src lines {lines}")
    print(f"{'module':<14} {'public':>6} {'settable':>8}")
    for name, public, settable in rows:
        print(f"{name:<14} {public:>6} {settable:>8}")
    total_public = sum(row[1] for row in rows)
    total_settable = sum(row[2] for row in rows)
    print(f"{'total':<14} {total_public:>6} {total_settable:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
