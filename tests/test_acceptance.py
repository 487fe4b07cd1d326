"""Acceptance suite: one test per criterion, each printing a verdict line.

The bound checks are ratio-boundedness regressions: the estimates under
test carry implicit constants, so acceptance asserts that the measured
lhs/rhs sequences stay bounded and do not blow up across the sweep, at
the stated tolerances and within the stated runtime budgets.
"""

import itertools
import math
import time

import numpy as np
import pytest

from apsum.experiment import builtin_matrices, builtin_spectra
from apsum.kernels import kernel_mass, partial_sum_direct, partial_sum_kernel_table
from apsum.matrices import class_constants, class_membership, explicit_matrix, side_condition
from apsum.measures import (
    SamplePlan,
    WindowGrid,
    check_eq7,
    fit_class_majorant,
    moduli,
    modulus_omega,
    resolve_span,
    stepanov_norm,
)
from apsum.spectra import Spectrum, QuasiPeriodicFunction
from apsum.strong_means import ratio_sweep, strong_mean_rows, sweep_rows

from conftest import record_criterion, scaled

SEED = 20260810
COS = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0)]))
N_SWEEP = range(1, 129)
HEAD_END = 8
BLOWUP_FACTOR = 2.0
RATIO_CAP = 50.0


@pytest.fixture(scope="module")
def spectra():
    return {"smooth": builtin_spectra("smooth"), "lacunary": builtin_spectra("lacunary")}


@pytest.fixture(scope="module")
def fitted_majorants(spectra):
    """Rescaled class majorants per (spectrum, x), one fit call per
    spectrum; its elapsed seconds are shared equally among its x."""
    fits = {}
    xs = (0.0, 0.7)
    for name, f in spectra.items():
        t0 = time.perf_counter()
        pairs = fit_class_majorant(f, xs, 2.0, SamplePlan.default())
        share = (time.perf_counter() - t0) / len(xs)
        for x, (w, report) in zip(xs, pairs):
            fits[(name, x)] = (w, report, share)
    return fits


def _series(records):
    """The (x, q) series of a sweep's records, in sweep order."""
    return [list(group) for _, group in itertools.groupby(records, lambda r: (r.x, r.q))]


def _max_ratio(series) -> float:
    return max((r.ratio for r in series if not math.isnan(r.ratio)), default=0.0)


def _blowup_ok(series) -> bool:
    head = max(r.ratio for r in series if r.n <= HEAD_END)
    tail = max(r.ratio for r in series if r.n >= HEAD_END)
    return tail <= BLOWUP_FACTOR * head + 1e-12


def test_criterion_1_kernel_representation(spectra):
    ks = list(range(1, 65))
    t0 = time.perf_counter()
    worst = 0.0
    for f in spectra.values():
        xs = (0.0, 0.7)
        table = partial_sum_kernel_table(f, ks, xs)
        for i, x in enumerate(xs):
            direct = np.array([partial_sum_direct(f, 0.5 * k, x) for k in ks])
            tol = np.maximum(1e-6, 1e-6 * np.abs(direct))
            worst = max(worst, float(np.max(np.abs(table[i] - direct) / tol)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed <= 60.0
    record_criterion(
        "1 kernel-representation equivalence",
        ok,
        f"worst err/tol = {worst:.2e}, {elapsed:.1f}s (limit 60s)",
    )
    assert ok


def test_criterion_2_kernel_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        masses = kernel_mass(alpha, np.arange(1, 65))
        worst = max(worst, float(np.abs(masses - 0.5).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    record_criterion(
        "2 kernel normalization",
        ok,
        f"worst |mass - 1/2| = {worst:.2e} (tol 1e-6), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_window_average_bound(spectra):
    f = spectra["smooth"]
    grid_pts = [2.0 * math.pi * i / 20 for i in range(1, 21)]
    violations = 0
    constants = []
    xs = (0.0, 0.7, 2.1)
    for x, (w, report) in zip(xs, fit_class_majorant(f, xs, 2.0, SamplePlan.default())):
        constants.append(report.constant)
        for d1 in grid_pts:
            for d2 in grid_pts:
                if not check_eq7(f, x, w, d1, d2):
                    violations += 1
    ok = violations == 0 and all(c <= 1.0 for c in constants)
    record_criterion(
        "3 window-average bound (20x20 grid, 3 points)",
        ok,
        f"violations = {violations}, rescaled constants <= "
        f"{max(constants):.6f}",
    )
    assert ok


def test_criterion_4_dyadic_ratio_boundedness(spectra, fitted_majorants):
    t0 = time.perf_counter()
    fit_time = sum(fitted_majorants[k][2] for k in fitted_majorants)
    worst = 0.0
    blowup_ok = True
    for name, f in spectra.items():
        for x in (0.0, 0.7):
            w = fitted_majorants[(name, x)][0]
            for rs in _series(ratio_sweep(f, "prop4", N_SWEEP, (0.5, 1.0, 2.0), [(x, w)])):
                worst = max(worst, _max_ratio(rs))
                blowup_ok = blowup_ok and _blowup_ok(rs)
    elapsed = time.perf_counter() - t0 + fit_time
    ok = worst <= RATIO_CAP and blowup_ok and elapsed <= 120.0
    record_criterion(
        "4 dyadic-mean ratio boundedness",
        ok,
        f"max ratio = {worst:.4f} (cap {RATIO_CAP}), no blow-up = {blowup_ok}, "
        f"{elapsed:.1f}s (limit 120s)",
    )
    assert ok


def test_criterion_5_cesaro_ratio_boundedness(spectra, fitted_majorants):
    ces = builtin_matrices("cesaro")
    worst = 0.0
    blowup_ok = True
    side_ok = bool(side_condition(ces, N_SWEEP)[0])
    for name, f in spectra.items():
        for x in (0.0, 0.7):
            w = fitted_majorants[(name, x)][0]
            for rs in _series(ratio_sweep(f, "thm6", N_SWEEP, (1.0, 2.0), [(x, w)], matrix=ces)):
                worst = max(worst, _max_ratio(rs))
                blowup_ok = blowup_ok and _blowup_ok(rs)
    ok = worst <= RATIO_CAP and blowup_ok and side_ok
    record_criterion(
        "5 monotone-row (Cesaro) ratio boundedness",
        ok,
        f"max ratio = {worst:.4f}, no blow-up = {blowup_ok}, side condition = {side_ok}",
    )
    assert ok


def test_criterion_6_gm2_ratio_boundedness(spectra, fitted_majorants):
    matrix = builtin_matrices("osc-gm2")  # constructor verifies the class
    membership = class_membership(matrix, "gm2", 8.0, N_SWEEP, c=2.0)
    worst = 0.0
    blowup_ok = True
    for name, f in spectra.items():
        for x in (0.0, 0.7):
            w = fitted_majorants[(name, x)][0]
            sweep = ratio_sweep(f, "thm5", N_SWEEP, (1.0, 2.0), [(x, w)], matrix=matrix, c=2.0)
            for rs in _series(sweep):
                worst = max(worst, _max_ratio(rs))
                blowup_ok = blowup_ok and _blowup_ok(rs)
    ok = (
        membership.member
        and bool(membership.side_condition_ok)
        and worst <= RATIO_CAP
        and blowup_ok
    )
    record_criterion(
        "6 oscillating-gm2-row ratio boundedness",
        ok,
        f"gm2 member = {membership.member} (sup K = {membership.sup_constant:.3f}), "
        f"first-weight flag = {membership.side_condition_ok}, "
        f"max ratio = {worst:.4f}, no blow-up = {blowup_ok}",
    )
    assert ok


def test_criterion_7_class_algebra_exactness():
    rng = np.random.default_rng(SEED)
    worst_rbvs = 0.0
    worst_gm = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 24))
        row = np.sort(rng.uniform(0.01, 1.0, n))[::-1]
        row = row / row.sum()
        worst_rbvs = max(worst_rbvs, abs(class_constants("rbvs", [row])[0] - 1.0))
        worst_gm = max(worst_gm, max(0.0, class_constants("gm", [row])[0] - 1.0))
    chain_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 24))
        row = rng.uniform(0.0, 1.0, n)
        row[rng.integers(0, n)] = 0.0
        s = row.sum()
        if s == 0.0:
            row[0] = 1.0
            s = 1.0
        row = row / s
        if np.all(np.diff(row) <= 0.0):  # nonincreasing: an ms row
            chain_ok = chain_ok and class_constants("rbvs", [row])[0] <= 1.0 + 1e-12
        if math.isfinite(class_constants("gm", [row])[0]):
            chain_ok = chain_ok and math.isfinite(class_constants("gm2", [row], 2.0)[0])
    ok = worst_rbvs <= 1e-12 and worst_gm <= 1e-12 and chain_ok
    record_criterion(
        "7 class algebra exactness (100 + 100 rows)",
        ok,
        f"max |rbvs-1| = {worst_rbvs:.2e}, max (gm-1)+ = {worst_gm:.2e}, "
        f"inclusion chain = {chain_ok}",
    )
    assert ok


def test_criterion_8_power_mean_properties():
    rng = np.random.default_rng(SEED + 1)
    qs = (0.5, 1.0, 2.0, 4.0)
    worst_mono = 0.0
    worst_homo = 0.0
    for _ in range(50):
        n_terms = int(rng.integers(1, 5))
        alpha = float(rng.uniform(0.4, 1.5))
        lams = np.cumsum(rng.uniform(alpha, 2 * alpha, n_terms)) + alpha
        terms = [
            (float(l), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            for l in lams
        ]
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(alpha, terms))
        rows = sweep_rows(explicit_matrix(rng.dirichlet(np.ones(int(rng.integers(1, 9))))[None]), [0])
        x = float(rng.uniform(-3, 3))
        means = strong_mean_rows(f, [x], rows, qs).ravel().tolist()
        for a, b in zip(means, means[1:]):
            worst_mono = max(worst_mono, (a - b) / max(b, 1e-300) if b else a)
        s = float(rng.uniform(-3, 3))
        base = means[2]
        mean_s = strong_mean_rows(scaled(f, s), [x], rows, [2.0]).item()
        denom = max(abs(s) * base, 1e-300)
        worst_homo = max(worst_homo, abs(mean_s - abs(s) * base) / denom)
    ok = worst_mono <= 1e-12 and worst_homo <= 1e-12
    record_criterion(
        "8 power-mean monotonicity and homogeneity (50 instances)",
        ok,
        f"worst monotonicity defect = {worst_mono:.2e}, "
        f"worst homogeneity defect = {worst_homo:.2e} (tol 1e-12)",
    )
    assert ok


def test_criterion_9_closed_form_anchors():
    errs = []
    errs.append(("norm", abs(stepanov_norm(COS, 2.0) - 0.7071), 1e-3))
    for d in (0.1, 1.0, 3.0):
        errs.append(
            (
                f"omega({d})",
                abs(modulus_omega(COS, d, math.inf) - 2.0 * math.sin(d / 2)),
                1e-3,
            )
        )
    pointwise = moduli(COS, 0.0, [0.5, 1.0, 2.0], (), 1.0)[0].tolist()
    for d, m in zip((0.5, 1.0, 2.0), pointwise):
        errs.append((f"pointwise({d})", abs(m - (2.0 - 2.0 * math.sin(d) / d)), 1e-6))
    ok = all(e <= tol for _, e, tol in errs)
    worst = max(e / tol for _, e, tol in errs)
    record_criterion(
        "9 closed-form numeric anchors",
        ok,
        f"worst err/tol = {worst:.2e} over {len(errs)} anchors",
    )
    assert ok


def test_criterion_10_pointwise_versus_translate_modulus(spectra):
    f = spectra["smooth"]
    p = 2.0
    grid = WindowGrid()
    span = resolve_span(f, grid)
    xs = np.linspace(0.0, span, 64, endpoint=False)
    deltas = (0.25, 0.5, 1.0)
    lhs = np.max([moduli(f, float(x), deltas, (), p)[0] for x in xs], axis=0)
    rhs = modulus_omega(f, deltas, p, grid)
    margins = (lhs - ((1.0 + 1e-3) * rhs + 1e-6)).tolist()
    ok = all(m <= 0.0 for m in margins)
    record_criterion(
        "10 pointwise modulus under translate modulus",
        ok,
        f"worst margin = {max(margins):.2e} (<= 0 required) at deltas (0.25, 0.5, 1)",
    )
    assert ok
