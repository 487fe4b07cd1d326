"""Strong means of cutoff deviations and their bound expressions.

For matrix weights a[n, :] and the cutoff ladder gamma_k = alpha*k/2 the
strong mean is the weighted power mean

    H_n(x) = ( sum_k a[n, k] |S_{gamma_k} f(x) - f(x)|^q )^(1/q),   q > 0,

with the dyadic variant averaging uniformly over k in [n, 2n].  The bound
expressions mirror three estimate shapes:

    dyadic:   w(pi/(n+1)) + tail(alpha n / 2)
    ms rows:  ( sum_k a[n,k] [w(pi/(k+1)) + tail(alpha k / 2)]^q )^(1/q)
    gm2 rows: same with tail(alpha k 2^-(1+c)); the block arithmetic of
              the derivation floors c, so the default factor is
              2^-(1+floor(c)) with a switch for the literal 2^-(1+c)
    omega:    ( sum_k a[n,k] omega(pi/(k+1))^q )^(1/q)

alpha is the gap of ``f.spectrum``.  ``ratio_sweep`` reads the rows of a run
from one weight table (the matrix's ``table``, or the dyadic blocks from one
mask), takes each side's means with one ``power_mean`` per q,
and returns one ``RatioRecord`` per (x, q, n): lhs, rhs and lhs/rhs, 0/0 as
ratio 0 (flagged) and finite/0 as inf.  The verdicts on them are
``experiment.run``'s; ``strong_mean_rows`` gives lhs means alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import GM2_C, SummabilityMatrix
from .measures import WindowGrid, modulus_omega
from .spectra import QuasiPeriodicFunction, power_mean

__all__ = ["THEOREMS", "RatioRecord", "ratio_sweep", "strong_mean_rows"]


def strong_mean_rows(f: QuasiPeriodicFunction, xs, table: np.ndarray, qs):
    """H_n(x) of each row of a weight table as one (q, x, row) array: the
    deviations |S_{alpha k/2} f(x) - f(x)| of every x and k from one ladder
    call, and one power_mean call per q."""
    xs = np.asarray(xs, dtype=float)
    ladder = f.partial_sums(xs, 0.5 * f.spectrum.alpha * np.arange(table.shape[1]))
    devs = np.abs(ladder - f(xs)[:, None])[:, None, :]
    return np.array([power_mean(table, devs, q) for q in qs])


def _brackets(w, f: QuasiPeriodicFunction, factor: float, size: int) -> np.ndarray:
    """w(pi/(k+1)) + tail(alpha k factor) for k < size."""
    ks = np.arange(size)
    return w(math.pi / (ks + 1)) + f.spectrum.tail_mass(f.spectrum.alpha * ks * factor)


def _omegas(f: QuasiPeriodicFunction, table: np.ndarray, p: float, grid) -> np.ndarray:
    """omega(pi/(k+1)) at each k some row of the table weighs, else 0: one
    modulus_omega call."""
    used = np.any(table > 0.0, axis=0)
    omegas = np.zeros(used.size)
    omegas[used] = modulus_omega(f, math.pi / (np.flatnonzero(used) + 1), p, grid)
    return omegas


def _dyadic_table(n_values) -> np.ndarray:
    """Uniform weights 1/(n+1) on the block k in [n, 2n], one row per n,
    zero-padded to the longest row plus its trailing zero."""
    ns = np.array(n_values, dtype=int)[:, None]
    if (ns < 0).any():
        raise ValueError(f"n must be >= 0, got {ns[ns < 0][0]}")
    k = np.arange(2 * ns.max(initial=0) + 2)
    return np.where((ns <= k) & (k <= 2 * ns), 1.0 / (ns + 1.0), 0.0)


@dataclass(frozen=True)
class RatioRecord:
    """One (x, q, n) of a sweep; x is None for thm2, whose lhs sups over x."""

    x: float | None
    q: float
    n: int
    lhs: float
    rhs: float
    ratio: float
    flags: tuple[str, ...]


THEOREMS = ("prop4", "thm2", "thm5", "thm6")


def _record(x: float | None, q: float, n: int, lhs: float, rhs: float) -> RatioRecord:
    """lhs/rhs with 0/0 as ratio 0 and finite/0 as inf, each flagged."""
    if rhs > 0.0:
        return RatioRecord(x, q, n, lhs, rhs, lhs / rhs, ())
    if lhs == 0.0:
        return RatioRecord(x, q, n, lhs, rhs, 0.0, ("zero-over-zero",))
    return RatioRecord(x, q, n, lhs, rhs, math.inf, ("infinite-ratio",))


def ratio_sweep(
    f: QuasiPeriodicFunction,
    theorem: str,
    n_values,
    qs,
    points,
    matrix: SummabilityMatrix | None = None,
    x_grid=None,
    p: float | None = None,
    grid: WindowGrid | None = None,
    c: float = GM2_C,
    thm5_literal_exponent: bool = False,
) -> list[RatioRecord]:
    """Per-n lhs/rhs/ratio records of one bound shape for every (x, q).

    ``qs`` holds the exponents q > 0; ``points`` holds one (x, w) pair per
    evaluation point; ``c`` > 1 and ``thm5_literal_exponent`` set the thm5
    tail cutoffs.  The weight table, the omega table and the deviations of
    every point (one ladder call) are read or built once, the bracket table
    once per point, and each side takes one ``power_mean`` call per q.  Records
    come ordered by x (in the order of ``points``), then q, then n.

    prop4: dyadic mean at x against w + tail.
    thm5/thm6: matrix strong mean at x against the bracket means.
    thm2: sup of the strong mean over ``x_grid`` (every grid point in the
    one ladder call) against the omega mean; x only labels the records.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"theorem must be one of {THEOREMS}, got {theorem!r}")
    qs, n_values = [float(q) for q in qs], [int(n) for n in n_values]
    if not all(q > 0.0 for q in qs):
        raise ValueError(f"every q must be > 0, got {qs}")
    if not c > 1.0:
        raise ValueError(f"c must be > 1, got {c}")
    if theorem != "prop4" and matrix is None:
        raise ValueError(f"{theorem} needs a summability matrix")
    if theorem in ("prop4", "thm5", "thm6"):
        if any(w is None for _, w in points):
            raise ValueError(f"{theorem} needs a majorant")
        if any(x is None for x, _ in points):
            raise ValueError(f"{theorem} is pointwise; pass x")
    if theorem == "thm2":
        if x_grid is None or len(x_grid) == 0:
            raise ValueError("thm2 needs a nonempty x_grid")
        if p is None:
            raise ValueError("thm2 needs the window exponent p")
    if not qs or not points:
        return []

    if theorem == "prop4":
        table = _dyadic_table(n_values)
    else:
        table, _ = matrix.table(n_values)
    if theorem == "thm2":
        lhs = strong_mean_rows(f, x_grid, table, qs).max(axis=1, keepdims=True)
        bounds = _omegas(f, table, p, grid)[None]
    else:
        lhs = strong_mean_rows(f, [x for x, _ in points], table, qs)
        # 2^-(1+c) underflows to 0 where 2^(1+c) would overflow
        exponent = 1.0 + (c if thm5_literal_exponent else math.floor(c))
        factor = 2.0**-exponent if theorem == "thm5" else 0.5
        bounds = np.array([_brackets(w, f, factor, table.shape[1]) for _, w in points])
    if theorem == "prop4":
        rhs = bounds[:, n_values]
    else:
        rhs = np.array([power_mean(table, bounds[:, None, :], q) for q in qs])
    shape = (len(qs), len(points), len(n_values))
    lhs, rhs = np.broadcast_to(lhs, shape).tolist(), np.broadcast_to(rhs, shape).tolist()
    return [
        _record(x, q, n, lhs[j][i][k], rhs[j][i][k])
        for i, (x, _) in enumerate(points)
        for j, q in enumerate(qs)
        for k, n in enumerate(n_values)
    ]
