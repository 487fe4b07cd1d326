"""Command-line entry points.

Exit codes: 0 success, 2 validation failure (bad config, bad input file,
a path that cannot be read or written), 3 bound-regression failure, which
includes a run whose every record is 0/0 and so checked nothing.  Every
command reports a validation failure the same way: one JSON object
{"ok": false, "field": ..., "error": ...} on stdout, ``field`` naming the
offending config entry (null when the error has no config field).
``classes`` writes an infinite class constant, the sentinel for growth out
of a zero weight, as null.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from .experiment import (
    ConfigError,
    ExperimentConfig,
    _strict_summary,
    report_to_dict,
    run,
    strong_mean_table,
    write_report,
)
from .matrices import CLASS_NAMES, GM2_C, MatrixError, class_membership, load_matrix
from .spectra import SpectrumError, validate_spectrum
from .strong_means import THEOREMS

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3

VALIDATION_ERRORS = (ConfigError, SpectrumError, MatrixError, OSError)


def cmd_validate(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, allow_invalid=args.allow_invalid)
    issues = [
        {"code": i.code, "index": i.index, "detail": i.detail}
        for i in validate_spectrum(cfg.resolve_function()).issues
    ]
    print(json.dumps({"ok": True, "theorem": cfg.theorem, "spectrum_issues": issues}))
    return EXIT_OK


def cmd_classes(args) -> int:
    lo, hi = args.n_range
    if not 0 <= lo <= hi:
        raise ConfigError("n_range", f"need 0 <= LO <= HI, got LO={lo}, HI={hi}")
    if not math.isfinite(args.threshold):
        raise ConfigError("threshold", f"must be finite, got {args.threshold}")
    if not 1.0 < args.c < math.inf:
        raise ConfigError("c", f"must be > 1 and finite, got {args.c}")
    if args.cls not in (None, "gm2") and args.c != GM2_C:
        raise ConfigError("c", f"only gm2 reads c; {args.cls} reads none")
    matrix = load_matrix(args.matrix_file)
    names = [args.cls] if args.cls else CLASS_NAMES
    out = {}
    for name in names:
        rep = class_membership(matrix, name, args.threshold, range(lo, hi + 1), c=args.c)
        out[name] = {
            "member": rep.member,
            "sup_constant": rep.sup_constant if math.isfinite(rep.sup_constant) else None,
            "threshold": rep.threshold,
            "side_condition_ok": rep.side_condition_ok,
            **({"c": rep.c} if rep.c is not None else {}),
        }
    print(json.dumps({"matrix": matrix.describe(), "classes": out}, sort_keys=True, allow_nan=False))
    return EXIT_OK


def cmd_strong_mean(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out:  # the write's OSError before the sweep; append keeps a file as it is
        made = not Path(args.out).exists()
        Path(args.out).open("a").close()
        if made:
            Path(args.out).unlink()
    table = strong_mean_table(cfg)
    if args.out:
        Path(args.out).write_text(table)
    else:
        sys.stdout.write(table)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.theorem:
        data = dict(cfg.to_dict(), theorem=args.theorem)
        cfg = ExperimentConfig.from_dict(data, Path(args.config).parent)
    report = run(cfg)
    print(json.dumps(_strict_summary(report.summary), sort_keys=True, allow_nan=False))
    return EXIT_OK if report.summary["regression_ok"] else EXIT_TOLERANCE


@contextlib.contextmanager
def _writing(args):
    """An OSError on the report's output path: raised as it is for ``--out``
    (field null), as a ConfigError naming ``output`` for the config field."""
    try:
        yield
    except OSError as exc:
        if args.out:
            raise
        raise ConfigError("output", f"cannot write: {exc}") from None


def cmd_report(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    out = args.out or cfg.output
    if out is not None:
        with _writing(args):  # an unusable path is refused before the sweep runs
            Path(out).mkdir(parents=True, exist_ok=True)
    report = run(cfg)
    if out is None:
        print(json.dumps(report_to_dict(report), sort_keys=True, allow_nan=False))
    else:
        with _writing(args):
            paths = write_report(report, out)
        print(json.dumps({"written": [str(p) for p in paths]}, sort_keys=True))
    return EXIT_OK if report.summary["regression_ok"] else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apsum",
        description="Strong summation experiments for quasi-periodic signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a config and its inputs")
    p.add_argument("config")
    p.add_argument(
        "--allow-invalid",
        action="store_true",
        help="report spectrum violations instead of rejecting them",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classes", help="sequence-class constants of a matrix file")
    p.add_argument("matrix_file")
    p.add_argument("--class", dest="cls", choices=CLASS_NAMES)
    p.add_argument("--c", type=float, default=GM2_C)
    p.add_argument("--threshold", type=float, default=8.0)
    p.add_argument("--n-range", nargs=2, type=int, default=[0, 64], metavar=("LO", "HI"))
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("strong-mean", help="per-n strong mean table")
    p.add_argument("config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_strong_mean)

    p = sub.add_parser("verify", help="run the bound-ratio regression")
    p.add_argument("config")
    p.add_argument("--theorem", choices=THEOREMS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="run and write the full report")
    p.add_argument("config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        field = getattr(exc, "field", None)
        print(json.dumps({"ok": False, "field": field, "error": str(exc)}))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
