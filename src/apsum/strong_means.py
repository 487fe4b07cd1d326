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
once (``sweep_rows``), takes each side's means with one call per q, and
returns the sweep: lhs, rhs and lhs/rhs as (x, q, n) arrays, 0/0 as ratio
0 (flagged) and finite/0 as inf.  ``experiment.run``'s verdicts and
writers read those arrays; the sweep's ``records()`` gives one
``RatioRecord`` per (x, q, n) to a caller that asks.  ``strong_mean_rows``
gives lhs means alone.

Rows of a Riesz-type matrix, a[n, k] = p_k [k <= n] / P_n (Cesaro,
riesz, osc-gm2), need no table: sum_k a[n, k] v_k^q is a prefix sum of
p_k v_k^q read at n over P_n, one cumsum per (x, q) over k <= max n, and
at q = inf the mean is a running max.  ``power_mean`` scales each row by
its own top, max v_k over its live k; one scale for every row would
underflow the terms of the early rows of a rising sweep.  So the prefix
route takes its rows in blocks, each scaled by the top s and the sum P of
its last row: that row's terms are ``power_mean``'s, and an earlier row
n's are its own times (P_n / P)(top_n / s)^q <= 1.  A row whose largest
term falls below ``TERM_FLOOR`` (and below the last row's) goes to the
next block.  The largest term of a row does not fall as n grows, so those
rows form a head of the rows left.  The means agree with ``power_mean``
of the table to a relative 1e-12, the last row of each block of a Cesaro
or osc-gm2 sweep to the bit.  A row whose top is inf or NaN has
``power_mean``'s NaN mean at finite q (inf / inf is NaN).  Explicit rows,
Riesz rows whose powers or sums overflow and prop4's dyadic blocks (whose
window sums prefix differences would cancel) keep the dense table and
``power_mean``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .matrices import GM2_C, SummabilityMatrix
from .measures import WindowGrid, modulus_omega
from .spectra import QuasiPeriodicFunction, power_mean

__all__ = ["THEOREMS", "RatioRecord", "ratio_sweep", "strong_mean_rows", "sweep_rows"]

# A row's prefix sum in a block is good to rounding where its largest term
# is at least this (2^-960: the subnormal terms below it move a sum of up
# to 2^20 of them by at most 2^-95 relative).
TERM_FLOOR = 2.0**-960


def _prefix_means(p: np.ndarray, sums: np.ndarray, ns: np.ndarray, values: np.ndarray, q: float):
    """power_mean of each row a[n, k] = p_k [k <= n] / P_n of ``ns`` against
    ``values`` (X, N + 1), as (X, len(ns)); ``sums`` holds P_0..P_N.  Blocks
    of rows as the module docstring states them: one cumsum per block.  At
    finite q a row with an inf or NaN top is NaN and joins no block."""
    v = np.where(p > 0.0, np.abs(values), 0.0)
    top = np.maximum.accumulate(v, axis=-1)  # a NaN carries to every later k
    if math.isinf(q):
        return top[:, ns]
    rows, back = np.unique(ns, return_inverse=True)
    tops, totals = top[:, rows], sums[rows]
    finite = np.isfinite(tops)
    out = np.where(finite, 0.0, math.nan)
    todo = finite & (tops > 0.0)
    lanes = np.arange(len(v))
    while todo.any():
        live = todo.any(axis=1)
        last = rows.size - 1 - np.argmax(todo[:, ::-1], axis=1)
        s = np.where(live, tops[lanes, last], 1.0)[:, None]
        total = np.where(live, totals[last], 1.0)[:, None]
        width = rows[last[live]].max() + 1
        at = np.minimum(rows, width - 1)
        # past a lane's last row v / s may exceed 1: those terms are not read
        with np.errstate(over="ignore", invalid="ignore"):
            terms = p[:width] / total * (v[:, :width] / s) ** q
            largest = np.maximum.accumulate(terms, axis=-1)[:, at]
            take = todo & (largest >= np.minimum(TERM_FLOOR, largest[lanes, last])[:, None])
            mean = s * (np.cumsum(terms, axis=-1)[:, at] * (total / totals)) ** (1.0 / q)
        out = np.where(take, mean, out)
        todo &= ~take
    return out[:, back]


class _TableRows:
    """Rows read from a dense weight table with ``power_mean``; ``used``
    marks the k some row weighs, ``means`` gives each row's mean of every
    lane of values (X, width) as (X, rows)."""

    def __init__(self, table: np.ndarray):
        self.table, self.width = table, table.shape[1]

    def used(self) -> np.ndarray:
        return np.any(self.table > 0.0, axis=0)

    def means(self, values: np.ndarray, q: float) -> np.ndarray:
        return power_mean(self.table, values[:, None, :], q)


class _WeightRows:
    """Rows a[n, k] = p_k [k <= n] / P_n of the n of a sweep, read with
    ``_prefix_means``; ``used`` and ``means`` as ``_TableRows``'s."""

    def __init__(self, p: np.ndarray, sums: np.ndarray, ns: np.ndarray):
        self.p, self.sums, self.ns, self.width = p, sums, ns, p.size

    def used(self) -> np.ndarray:
        return self.p > 0.0

    def means(self, values: np.ndarray, q: float) -> np.ndarray:
        return _prefix_means(self.p, self.sums, self.ns, values, q)


def sweep_rows(matrix: SummabilityMatrix, n_values):
    """The rows of ``n_values`` as the strong means read them: a Riesz-type
    matrix's weights (``SummabilityMatrix.weights``), else its table."""
    weights = matrix.weights(n_values)
    if weights is None:
        return _TableRows(matrix.table(n_values)[0])
    return _WeightRows(*weights, np.asarray(n_values, dtype=int))


def strong_mean_rows(f: QuasiPeriodicFunction, xs, rows, qs):
    """H_n(x) of each row as one (q, x, row) array: the deviations
    |S_{alpha k/2} f(x) - f(x)| of every x and k from one ladder call, and
    one row-mean call per q; ``rows`` comes from ``sweep_rows``."""
    xs = np.asarray(xs, dtype=float)
    ladder = f.partial_sums(xs, 0.5 * f.spectrum.alpha * np.arange(rows.width))
    devs = np.abs(ladder - f(xs)[:, None])
    return np.array([rows.means(devs, q) for q in qs])


def _brackets(w, f: QuasiPeriodicFunction, factor: float, size: int) -> np.ndarray:
    """w(pi/(k+1)) + tail(alpha k factor) for k < size."""
    ks = np.arange(size)
    return w(math.pi / (ks + 1)) + f.spectrum.tail_mass(f.spectrum.alpha * ks * factor)


def _omegas(f: QuasiPeriodicFunction, used: np.ndarray, p: float, grid) -> np.ndarray:
    """omega(pi/(k+1)) at each k some row weighs, else 0: one modulus_omega
    call."""
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


class RatioRecord(NamedTuple):
    """One (x, q, n) of a sweep; x is None for thm2, whose lhs sups over x.
    Built only on request (``records()``): 2^18 records of a long sweep took
    over half its ``run()``.  A named tuple rather than a frozen dataclass:
    it builds in under half the time."""

    x: float | None
    q: float
    n: int
    lhs: float
    rhs: float
    ratio: float
    flags: tuple[str, ...]


THEOREMS = ("prop4", "thm2", "thm5", "thm6")
_FLAGS = ((), ("zero-over-zero",), ("infinite-ratio",))


class _Sweep(NamedTuple):
    """A sweep as arrays: its x labels, q and n, and lhs, rhs, ratio and
    flag code (an index into ``_FLAGS``), each shaped (x, q, n), the order
    of its records."""

    xs: list
    qs: list[float]
    n_values: list[int]
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    code: np.ndarray

    def columns(self) -> tuple[list, ...]:
        """``RatioRecord``'s seven columns of Python values, in record order."""
        size = len(self.n_values)
        return (
            [x for x in self.xs for _ in range(len(self.qs) * size)],
            [q for _ in self.xs for q in self.qs for _ in range(size)],
            self.n_values * (len(self.xs) * len(self.qs)),
            self.lhs.ravel().tolist(),
            self.rhs.ravel().tolist(),
            self.ratio.ravel().tolist(),
            [_FLAGS[c] for c in self.code.ravel().tolist()],
        )

    def records(self) -> list[RatioRecord]:
        """One ``RatioRecord`` per (x, q, n), in that order."""
        return list(map(RatioRecord._make, zip(*self.columns())))


def _sweep_of(xs, qs, n_values, lhs: np.ndarray, rhs: np.ndarray) -> _Sweep:
    """The sweep of lhs and rhs arrays that broadcast to (q, x, n): lhs/rhs
    where rhs > 0, else 0/0 as ratio 0 and any other lhs (NaN too) as inf,
    each flagged."""
    shape = (len(qs), len(xs), len(n_values))
    lhs, rhs = (np.broadcast_to(a, shape).transpose(1, 0, 2).copy() for a in (lhs, rhs))
    positive = rhs > 0.0
    code = np.where(positive, 0, np.where(lhs == 0.0, 1, 2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(positive, lhs / rhs, np.where(code == 1, 0.0, math.inf))
    return _Sweep(list(xs), qs, n_values, lhs, rhs, ratio, code)


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
) -> _Sweep:
    """Per-n lhs, rhs and ratio of one bound shape for every (x, q), as one
    sweep of (x, q, n) arrays; its ``records()`` are the ``RatioRecord``s.

    ``qs`` holds the exponents q > 0; ``points`` holds one (x, w) pair per
    evaluation point; ``c`` > 1 and ``thm5_literal_exponent`` set the thm5
    tail cutoffs.  The weight table, the omega table and the deviations of
    every point (one ladder call) are read or built once, the bracket table
    once per point, and each side takes one row-mean call per q.  The x
    axis follows the order of ``points``.

    prop4: dyadic mean at x against w + tail.
    thm5/thm6: matrix strong mean at x against the bracket means.
    thm2: sup of the strong mean over ``x_grid`` (every grid point in the
    one ladder call) against the omega mean; x only labels the sweep.
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
        empty = np.zeros((len(qs), len(points), len(n_values)))
        return _sweep_of([x for x, _ in points], qs, n_values, empty, empty)

    rows = _TableRows(_dyadic_table(n_values)) if theorem == "prop4" else sweep_rows(matrix, n_values)
    if theorem == "thm2":
        lhs = strong_mean_rows(f, x_grid, rows, qs).max(axis=1, keepdims=True)
        bounds = _omegas(f, rows.used(), p, grid)[None]
    else:
        lhs = strong_mean_rows(f, [x for x, _ in points], rows, qs)
        # 2^-(1+c) underflows to 0 where 2^(1+c) would overflow
        exponent = 1.0 + (c if thm5_literal_exponent else math.floor(c))
        factor = 2.0**-exponent if theorem == "thm5" else 0.5
        bounds = np.array([_brackets(w, f, factor, rows.width) for _, w in points])
    if theorem == "prop4":
        rhs = bounds[:, n_values]
    else:
        rhs = np.array([rows.means(bounds, q) for q in qs])
    return _sweep_of([x for x, _ in points], qs, n_values, lhs, rhs)
