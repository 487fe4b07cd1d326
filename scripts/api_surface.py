#!/usr/bin/env python3
"""Print the size of apsum's public surface: the line count of the package's
source files, then per module the number of public names (its ``__all__``),
of settable values and of public methods, then the totals.

A settable value is one parameter of a callable in a module's ``__all__``,
as ``inspect.signature`` lists it: the fields of a dataclass, the arguments
of a function or of an exception.  A class whose signature ``inspect``
cannot read (an exception that keeps its base's constructor) counts 0.
A public method is a callable that a public class defines itself under a
name with no leading underscore, so a method swapped for another shows.

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


def public_methods(obj) -> int:
    """The public callables a class defines itself, 0 for anything else."""
    if not isinstance(obj, type):
        return 0
    return sum(not name.startswith("_") and callable(getattr(obj, name)) for name in vars(obj))


def surface() -> tuple[int, list[tuple[str, int, int, int]]]:
    """The package's source line count and (module, public names, settable
    values, public methods) per module."""
    package = Path(apsum.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py")))
    rows = []
    for name in MODULES:
        module = importlib.import_module(f"apsum.{name}")
        public = [getattr(module, attr) for attr in module.__all__]
        settable = sum(settable_values(obj) for obj in public)
        rows.append((name, len(public), settable, sum(public_methods(obj) for obj in public)))
    return lines, rows


def main() -> int:
    lines, rows = surface()
    print(f"src lines {lines}")
    print(f"{'module':<14} {'public':>6} {'settable':>8} {'methods':>7}")
    totals = [sum(row[i] for row in rows) for i in (1, 2, 3)]
    for name, public, settable, methods in rows + [("total", *totals)]:
        print(f"{name:<14} {public:>6} {settable:>8} {methods:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
