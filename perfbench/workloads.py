"""The four benchmark workloads: seeded inputs, the timed call, the checks.

A seed draws only the phases of the spectrum terms and the evaluation
points x.  Frequencies, amplitude magnitudes, matrices and ranges are
fixed, so gaps, tails, validation and cost are the same for every seed.

apsum is always called through its module attributes (``experiment.run``,
not a name imported from it), so the traced run's wrappers see the
benchmark's own calls too.
"""

from __future__ import annotations

import functools
import hashlib
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from apsum import experiment, kernels, matrices, spectra

import oracle

TWO_PI = 2.0 * math.pi
LACUNARY = ([2.0**j for j in range(11)], [2.0**-j for j in range(11)])
SMOOTH = ([1.0, 10.0], [1.0, 0.1])
IRRATIONAL = ([1.0, math.sqrt(2.0) * math.pi], [1.0, 0.5])

# paper-checks sizes.  With 4 x points and rows 0..128 the kernel table
# and the class constants take comparable shares of a sample (about 1.3 s
# each on a 2-core x86 box).  The gm/gm2 constants cost O(n^2) per row,
# so rows 0..256 would make one sample about four times longer.
KERNEL_KS = range(1, 129)
KERNEL_XS = 4
CLASS_ROWS = range(0, 129)
CLASS_NAMES = ("ms", "rbvs", "gm", "gm2")
CLASS_C = 2.0
CLASS_MATRICES = {
    "cesaro": ({"builtin": "cesaro"}, oracle.cesaro_row),
    "riesz": (
        {"builtin": "riesz", "params": {"exponent": 1.0}},
        lambda n: oracle.riesz_row(n, 1.0),
    ),
    "osc-gm2": ({"builtin": "osc-gm2", "params": {"c": CLASS_C}}, oracle.osc_gm2_row),
}

LHS_RTOL = 1e-9
KERNEL_GAP = 1e-6
DIRECT_ATOL = 1e-12
CLASS_RTOL = 1e-12
BAD_FLAGS = ("quadrature-failure", "infinite-ratio")


def seeded_spectrum(rng: np.random.Generator, terms) -> dict:
    """Inline spectrum with fixed frequencies and magnitudes, seeded phases."""
    freqs, mags = terms
    phases = rng.uniform(0.0, TWO_PI, len(freqs))
    return {
        "alpha": 1.0,
        "entries": [
            {"lambda": lam, "cos": m * math.cos(ph), "sin": -m * math.sin(ph)}
            for lam, m, ph in zip(freqs, mags, phases)
        ],
    }


def seeded_xs(rng: np.random.Generator, count: int) -> list[float]:
    return [float(v) for v in rng.uniform(0.0, TWO_PI, count)]


def seeded_points(rng: np.random.Generator, spec: dict, count: int) -> list[float]:
    """Evaluation points for the pointwise theorems, away from zeros of f.

    x is uniform on [0, 2 pi) and redrawn while |f(x)| is below a quarter
    of the amplitude mass.  Near a zero of f the ratio series starts tiny
    and the head/tail blow-up verdict fails although every ratio stays
    below 0.1 (smooth-thm5 with uniform x: about 3% of draws, all with
    |f(x)| < 0.04).  Such points would measure that verdict, not speed.
    """
    freqs, cos, sin = _spectrum_arrays(spec)
    mass = float(np.hypot(cos, sin).sum())
    out: list[float] = []
    while len(out) < count:
        x = float(rng.uniform(0.0, TWO_PI))
        if abs(oracle.term_values(freqs, cos, sin, [x]).sum()) >= 0.25 * mass:
            out.append(x)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[np.random.Generator], dict]
    execute: Callable[[dict], object]
    check: Callable[[dict, object], list[str]]
    setup: Callable[[dict], object]
    reports: bool  # True when the result is an ExperimentReport


# ---------------------------------------------------------------- run()


# lacunary-thm6 sizes.  The fit samples 6 x 6 (gamma, delta) pairs and
# the sweep stops at n = 64, so that the majorant fit is most of a sample
# and a sample stays near 2 s.  With the default 20 x 20 plan and n up to
# 128 one sample takes about 25 s.
def make_lacunary(rng):
    spec = seeded_spectrum(rng, LACUNARY)
    return {
        "spectrum": spec,
        "theorem": "thm6",
        "matrix": {"builtin": "cesaro"},
        "majorant": {"type": "fit", "count": 6},
        "p": 2.0,
        "q": [1.0, 2.0],
        "x": seeded_points(rng, spec, 1),
        "n_range": [1, 64],
    }


def make_smooth_thm5(rng):
    spec = seeded_spectrum(rng, SMOOTH)
    return {
        "spectrum": spec,
        "theorem": "thm5",
        "matrix": {"builtin": "osc-gm2", "params": {"c": 2.0}},
        "p": 2.0,
        "q": [1.0, 2.0],
        "c": 2.0,
        "x": seeded_points(rng, spec, 2),
        "n_range": [1, 128],
    }


def make_smooth_thm2(rng):
    return {
        "spectrum": seeded_spectrum(rng, SMOOTH),
        "theorem": "thm2",
        "matrix": {"builtin": "cesaro"},
        "p": 2.0,
        "q": [2.0],
        "n_range": [1, 24],
        "x_samples": 16,
    }


def setup_run(config: dict):
    """Config parse and validation plus spectrum and matrix resolution."""
    cfg = experiment.ExperimentConfig.from_dict(config)
    return cfg, cfg.resolve_function(), cfg.resolve_matrix()


def execute_run(config: dict):
    return experiment.run(experiment.ExperimentConfig.from_dict(config))


def _spectrum_arrays(spec: dict):
    entries = spec["entries"]
    return (
        np.array([e["lambda"] for e in entries]),
        np.array([e["cos"] for e in entries]),
        np.array([e["sin"] for e in entries]),
    )


def expected_lhs(config: dict) -> dict[tuple, float]:
    """Oracle strong means keyed by (x, q, n); x is None for thm2."""
    freqs, cos, sin = _spectrum_arrays(config["spectrum"])
    alpha = config["spectrum"]["alpha"]
    lo, hi = config["n_range"]
    ns = list(range(lo, hi + 1))
    if config["theorem"] == "thm2":
        # one common period 2 pi / gcd of the integer frequencies
        span = TWO_PI / math.gcd(*(int(v) for v in freqs))
        xs = np.linspace(0.0, span, config["x_samples"], endpoint=False)
    else:
        xs = np.array(config["x"])
    cutoffs = 0.5 * alpha * np.arange(hi + 1)
    devs = oracle.cutoff_sums(freqs, cos, sin, xs, cutoffs)
    devs = np.abs(devs - oracle.term_values(freqs, cos, sin, xs).sum(axis=1)[:, None])
    rows = oracle.dense_rows(config["matrix"]["builtin"], ns)
    out = {}
    for q in config["q"]:
        means = oracle.power_means(rows, devs, q)  # (len(xs), len(ns))
        for j, n in enumerate(ns):
            if config["theorem"] == "thm2":
                out[(None, q, n)] = float(means[:, j].max())
            else:
                for i, x in enumerate(config["x"]):
                    out[(x, q, n)] = float(means[i, j])
    return out


def check_run(config: dict, report) -> list[str]:
    problems = []
    s = report.summary
    if s["regression_ok"] is not True:
        problems.append(f"regression_ok is {s['regression_ok']!r}")
    if s["side_condition_ok"] is False:
        problems.append("side_condition_ok is False")
    for flag in BAD_FLAGS:
        if s["flag_counts"].get(flag):
            problems.append(f"{s['flag_counts'][flag]} records flagged {flag}")
    want = expected_lhs(config)
    got = {(r.x, r.q, r.n): r.lhs for r in report.records}
    if set(got) != set(want):
        problems.append(f"records cover {len(got)} (x, q, n) keys, expected {len(want)}")
    bad = [k for k in want if k in got and not oracle.close(got[k], want[k], LHS_RTOL)]
    if bad:
        k = bad[0]
        problems.append(
            f"{len(bad)} lhs values off the oracle by > {LHS_RTOL:g} relative, "
            f"first at {k}: {got[k]!r} vs {want[k]!r}"
        )
    return problems


def report_digest(report, root: Path) -> str:
    """sha256 of the report.json that ``write_report`` writes."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        experiment.write_report(report, tmp)
        return hashlib.sha256((Path(tmp) / "report.json").read_bytes()).hexdigest()


# ---------------------------------------------------------- paper checks


def make_paper_checks(rng):
    return {"spectrum": seeded_spectrum(rng, IRRATIONAL), "xs": seeded_xs(rng, KERNEL_XS)}


def setup_paper_checks(inputs: dict):
    spec = spectra.spectrum_from_dict(inputs["spectrum"])
    report = spectra.validate_spectrum(spec)
    if not report.ok:
        raise spectra.SpectrumError(f"seeded spectrum invalid: {report.codes()}")
    f = spectra.QuasiPeriodicFunction(spec)
    mats = {
        name: experiment.builtin_matrices(src["builtin"], src.get("params"))
        for name, (src, _) in CLASS_MATRICES.items()
    }
    return f, mats


def execute_paper_checks(inputs: dict):
    f, mats = setup_paper_checks(inputs)
    xs = inputs["xs"]
    table = kernels.partial_sum_kernel_table(f, KERNEL_KS, xs)
    alpha = f.spectrum.alpha
    direct = np.array(
        [[kernels.partial_sum_direct(f, 0.5 * alpha * k, x) for k in KERNEL_KS] for x in xs]
    )
    classes = {
        (name, cls): matrices.class_membership(m, cls, 1.0, CLASS_ROWS, c=CLASS_C).constants
        for name, m in mats.items()
        for cls in CLASS_NAMES
    }
    return {"table": table, "direct": direct, "classes": classes}


@functools.cache
def class_oracle(name: str) -> tuple[dict[str, float], ...]:
    """Oracle constants for every row; seed-independent, so computed once."""
    row = CLASS_MATRICES[name][1]
    return tuple(oracle.class_constants(row(n), CLASS_C) for n in CLASS_ROWS)


def kernel_gap(result: dict) -> float:
    return float(np.abs(result["table"] - result["direct"]).max())


def check_paper_checks(inputs: dict, result: dict) -> list[str]:
    problems = []
    gap = kernel_gap(result)
    if not gap <= KERNEL_GAP:
        problems.append(f"kernel table off partial_sum_direct by {gap:.3e} > {KERNEL_GAP:g}")
    freqs, cos, sin = _spectrum_arrays(inputs["spectrum"])
    cutoffs = 0.5 * inputs["spectrum"]["alpha"] * np.array(KERNEL_KS)
    want = oracle.cutoff_sums(freqs, cos, sin, inputs["xs"], cutoffs)
    scale = 1.0 + float(np.abs(cos).sum() + np.abs(sin).sum())
    off = float(np.abs(result["direct"] - want).max())
    if not off <= DIRECT_ATOL * scale:
        problems.append(f"partial_sum_direct off the oracle by {off:.3e}")
    for (name, cls), got in result["classes"].items():
        want_c = [row[cls] for row in class_oracle(name)]
        bad = [
            n
            for n, a, b in zip(CLASS_ROWS, got, want_c)
            if not oracle.close(a, b, CLASS_RTOL)
        ]
        if len(got) != len(want_c) or bad:
            problems.append(f"{name} {cls} constants off the oracle at rows {bad[:5]}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lacunary-thm6", make_lacunary, execute_run, check_run, setup_run, True),
        Workload("smooth-thm5", make_smooth_thm5, execute_run, check_run, setup_run, True),
        Workload("smooth-thm2", make_smooth_thm2, execute_run, check_run, setup_run, True),
        Workload(
            "paper-checks",
            make_paper_checks,
            execute_paper_checks,
            check_paper_checks,
            setup_paper_checks,
            False,
        ),
    )
}


def inputs_rng(seed: int, index: int) -> np.random.Generator:
    """Inputs for sample ``index`` of a run seeded with ``seed``."""
    return np.random.default_rng([seed, index])
