#!/usr/bin/env python3
"""Print one sha256 per output of every experiment config: report.json and
each records CSV of ``apsum report``, and the ``apsum strong-mean`` table
where the config has a matrix.  Then print one sha256 per matrix family
(Cesaro, riesz at exponents 1 and 0.5 and with weights, osc-gm2 at c = 2
and 4) over the reprs of its rows 0..256 and of their four class constants,
and one sha256 per builtin spectrum (smooth, lacunary, irrational) over the
repr of its kernel-route cutoff table at k = 1..128 and three x, one
over the repr of its p = 2 translate moduli omega(pi/(k+1)), k = 0..63, one
each over those moduli at p = 1.5 and p = inf (the refined sups at finite
p other than 2 and at inf), and one over its p = inf pointwise and
shifted-difference ``moduli`` at x = 0.7 on the default sample plan, the
plan's points as widths and +- each point as shifts.

Run it on two commits and diff the output to check that a change keeps
every output byte-identical:

    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

from apsum.cli import main as apsum
from apsum.experiment import ExperimentConfig, builtin_matrices, builtin_spectra
from apsum.kernels import partial_sum_kernel_table
from apsum.matrices import class_membership
from apsum.measures import SamplePlan, modulus_omega, moduli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The families no config reaches byte for byte: (label, builtin, params, c).
MATRICES = (
    ("cesaro", "cesaro", None, 2.0),
    ("riesz-exponent-1.0", "riesz", {"exponent": 1.0}, 2.0),
    ("riesz-exponent-0.5", "riesz", {"exponent": 0.5}, 2.0),
    ("riesz-weights", "riesz", {"weights": [1.0 / (k + 1) for k in range(257)]}, 2.0),
    ("osc-gm2-c2.0", "osc-gm2", {"c": 2.0}, 2.0),
    ("osc-gm2-c4.0", "osc-gm2", {"c": 4.0}, 4.0),
)
MATRIX_ROWS = range(257)
KERNEL_SPECTRA = ("smooth", "lacunary", "irrational")
KERNEL_KS = range(1, 129)
KERNEL_XS = (0.0, 0.7, 2.9)
OMEGA_DELTAS = [math.pi / (k + 1) for k in range(64)]
# The p of the omega lines: '<label> <builtin> <sha256>'.
OMEGA_PS = (("omega", 2.0), ("omega-p1.5", 1.5), ("omega-pinf", math.inf))
MODULI_X = 0.7
MODULI_PLAN = SamplePlan.default()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(config: Path) -> list[str]:
    """'<config> <output> <sha256>' lines for one config, outputs sorted."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "report"
        if apsum(["report", str(config), "--out", str(out)]) not in (0, 3):
            raise SystemExit(f"{config}: apsum report failed")
        outputs = sorted(out.iterdir())
        if ExperimentConfig.from_file(config).matrix is not None:
            table = Path(tmp) / "strong-mean.csv"
            if apsum(["strong-mean", str(config), "--out", str(table)]) != 0:
                raise SystemExit(f"{config}: apsum strong-mean failed")
            outputs.append(table)
        for path in outputs:
            lines.append(f"{config.name} {path.name} {_sha256(path)}")
    return lines


def matrix_digest(label: str, builtin: str, params: dict | None, c: float) -> str:
    """'matrices <label> <sha256>' over the rows and class constants."""
    matrix = builtin_matrices(builtin, params)
    h = hashlib.sha256()
    table, sizes = matrix.table(MATRIX_ROWS)
    for row, size in zip(table, sizes):
        h.update(repr(row[:size].tolist()).encode())
    for name in ("ms", "rbvs", "gm", "gm2"):
        h.update(repr(class_membership(matrix, name, 1.0, MATRIX_ROWS, c=c).constants).encode())
    return f"matrices {label} {h.hexdigest()}"


def kernel_digest(builtin: str) -> str:
    """'kernels <builtin> <sha256>' over the kernel-route cutoff table."""
    table = partial_sum_kernel_table(builtin_spectra(builtin), KERNEL_KS, KERNEL_XS)
    return f"kernels {builtin} {hashlib.sha256(repr(table.tolist()).encode()).hexdigest()}"


def omega_digest(label: str, p: float, builtin: str) -> str:
    """'<label> <builtin> <sha256>' over the translate moduli at p."""
    omega = modulus_omega(builtin_spectra(builtin), OMEGA_DELTAS, p)
    return f"{label} {builtin} {hashlib.sha256(repr(omega.tolist()).encode()).hexdigest()}"


def moduli_digest(builtin: str) -> str:
    """'moduli-pinf <builtin> <sha256>' over the p = inf moduli."""
    shifts = [s * g for g in MODULI_PLAN.points for s in (1.0, -1.0)]
    point, shifted = moduli(builtin_spectra(builtin), MODULI_X, MODULI_PLAN.points, shifts, math.inf)
    text = repr((point.tolist(), shifted.tolist()))
    return f"moduli-pinf {builtin} {hashlib.sha256(text.encode()).hexdigest()}"


def main() -> int:
    for config in sorted(CONFIGS.glob("*.json")):
        print("\n".join(digests(config)))
    for family in MATRICES:
        print(matrix_digest(*family))
    for builtin in KERNEL_SPECTRA:
        print(kernel_digest(builtin))
    for label, p in OMEGA_PS:
        for builtin in KERNEL_SPECTRA:
            print(omega_digest(label, p, builtin))
    for builtin in KERNEL_SPECTRA:
        print(moduli_digest(builtin))
    return 0


if __name__ == "__main__":
    sys.exit(main())
