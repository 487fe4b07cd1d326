#!/usr/bin/env python3
"""Fit a rescaled class majorant for a spectrum at chosen points (one fit
call for every point) and print its knots, the estimated constants, and a
window-average bound spot check.
"""

from __future__ import annotations

import argparse
import json
import sys

from apsum.experiment import builtin_spectra
from apsum.measures import SamplePlan, check_eq7, fit_class_majorant, majorant_to_dict
from apsum.spectra import load_spectrum


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spectrum", default="smooth", help="builtin name or a JSON file path")
    parser.add_argument("--x", type=float, nargs="+", default=[0.0, 0.7, 2.1])
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--grid", type=int, default=20, help="sample points per axis")
    args = parser.parse_args(argv)

    if args.spectrum.endswith(".json"):
        f = load_spectrum(args.spectrum)
    else:
        f = builtin_spectra(args.spectrum)

    plan = SamplePlan.default(count=args.grid)
    all_ok = True
    for x, (w, report) in zip(args.x, fit_class_majorant(f, args.x, args.p, plan)):
        violations = sum(
            (not check_eq7(f, x, w, d1, d2)) for d1 in plan.points for d2 in plan.points
        )
        all_ok = all_ok and violations == 0
        print(
            json.dumps(
                {
                    "x": x,
                    "constants": {"c1": report.c1, "c2": report.c2},
                    "window_average_violations": violations,
                    "majorant": majorant_to_dict(w),
                },
                sort_keys=True,
            )
        )
    return 0 if all_ok else 3


if __name__ == "__main__":
    sys.exit(main())
