#!/usr/bin/env python3
"""Print one sha256 per output of every experiment config: report.json and
each records CSV of ``apsum report``, and the ``apsum strong-mean`` table
where the config has a matrix.

Run it on two commits and diff the output to check that a change keeps
every output byte-identical:

    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from apsum.cli import main as apsum
from apsum.experiment import ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def main() -> int:
    for config in sorted(CONFIGS.glob("*.json")):
        print("\n".join(digests(config)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
