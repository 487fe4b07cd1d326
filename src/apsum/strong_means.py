"""Strong means of cutoff deviations and their bound expressions.

For matrix weights a[n, :] and the cutoff ladder gamma_k = alpha*k/2 the
strong mean is the weighted power mean

    H_n(x) = ( sum_k a[n, k] |S_{gamma_k} f(x) - f(x)|^q )^(1/q),   q > 0,

with the dyadic variant averaging uniformly over k in [n, 2n].  The bound
expressions mirror three estimate shapes:

    dyadic:   w(pi/(n+1)) + tail(alpha n / 2)
    ms rows:  ( sum_k a[n,k] [w(pi/(k+1)) + tail(alpha k / 2)]^q )^(1/q)
    gm2 rows: same with tail(alpha k / 2^(1+c)); the block arithmetic of
              the derivation floors c, so the default divisor is
              2^(1+floor(c)) with a switch for the literal 2^(1+c)
    omega:    ( sum_k a[n,k] omega(pi/(k+1))^q )^(1/q)

``ratio_series`` reads every row from one per-k table per side and reports
lhs, rhs, lhs/rhs with 0/0 as ratio 0 (flagged) and finite/0 as inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import SummabilityMatrix, side_condition
from .measures import (
    ModulusMajorant,
    WindowGrid,
    modulus_omega,
)
from .spectra import QuasiPeriodicFunction

__all__ = [
    "THEOREMS",
    "StrongMeanParams",
    "power_mean",
    "strong_mean",
    "dyadic_strong_mean",
    "prop_dyadic_rhs",
    "ms_rows_rhs",
    "gm2_rows_rhs",
    "omega_rows_rhs",
    "RatioRecord",
    "RatioSeries",
    "ratio_series",
]


@dataclass(frozen=True)
class StrongMeanParams:
    """Exponent q, gap alpha (cutoffs gamma_k = alpha k/2), and the block
    parameter c > 1 of the averaged-mass bound."""

    q: float
    alpha: float
    c: float = 2.0
    literal_c_exponent: bool = False

    def __post_init__(self):
        if not self.q > 0.0:
            raise ValueError(f"q must be > 0, got {self.q}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.c > 1.0:
            raise ValueError(f"c must be > 1, got {self.c}")

    def gamma(self, k):
        """Cutoff alpha k / 2, elementwise for an array of k."""
        return 0.5 * self.alpha * k

    def tail_divisor(self) -> float:
        if self.literal_c_exponent:
            return 2.0 ** (1.0 + self.c)
        return 2.0 ** (1 + math.floor(self.c))


def power_mean(weights: np.ndarray, values: np.ndarray, q: float) -> float:
    """( sum w_i v_i^q )^(1/q) for nonnegative v and weights summing to 1.

    Scaling by the largest value keeps small q stable and makes amplitude
    homogeneity exact to rounding.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = w > 0.0
    if not np.any(mask):
        return 0.0
    w = w[mask]
    v = np.abs(v[mask])
    top = float(v.max())
    if top == 0.0:
        return 0.0
    return top * float(np.dot(w, (v / top) ** q)) ** (1.0 / q)


def _deviations(f: QuasiPeriodicFunction, x: float, size: int, params) -> np.ndarray:
    """|S_{alpha k/2} f(x) - f(x)| for k < size: one ladder call."""
    return np.abs(f.partial_sums(x, params.gamma(np.arange(size))) - f(x))


def _brackets(w, f: QuasiPeriodicFunction, params, divisor: float, size: int) -> np.ndarray:
    """w(pi/(k+1)) + tail(alpha k / divisor) for k < size."""
    ks = np.arange(size)
    return w(math.pi / (ks + 1)) + f.spectrum.tail_mass(params.alpha * ks / divisor)


def _omegas(f: QuasiPeriodicFunction, rows, p: float, grid) -> np.ndarray:
    """omega(pi/(k+1)) at each k some row weighs, else 0: one modulus_omega call."""
    used = np.zeros(max((row.size for row in rows), default=0), dtype=bool)
    for row in rows:
        used[: row.size] |= row > 0.0
    table = np.zeros(used.size)
    table[used] = modulus_omega(f, math.pi / (np.flatnonzero(used) + 1), p, grid)
    return table


def _dyadic_row(n: int) -> np.ndarray:
    """Uniform weights 1/(n+1) on the block k in [n, 2n]."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    row = np.zeros(2 * n + 1)
    row[n:] = 1.0 / (n + 1)
    return row


def strong_mean(
    f: QuasiPeriodicFunction,
    x: float,
    matrix: SummabilityMatrix,
    n: int,
    params: StrongMeanParams,
) -> float:
    """Weighted power mean of cutoff deviations with row n of the matrix."""
    row = matrix.row(n)
    return power_mean(row, _deviations(f, x, row.size, params), params.q)


def dyadic_strong_mean(
    f: QuasiPeriodicFunction, x: float, n: int, params: StrongMeanParams
) -> float:
    """Uniform strong mean over the dyadic block k in [n, 2n]."""
    row = _dyadic_row(n)
    return power_mean(row, _deviations(f, x, row.size, params), params.q)


def prop_dyadic_rhs(
    w: ModulusMajorant, f: QuasiPeriodicFunction, n: int, params: StrongMeanParams
) -> float:
    """w(pi/(n+1)) + spectral tail above alpha n / 2."""
    return float(_brackets(w, f, params, 2.0, n + 1)[n])


def ms_rows_rhs(
    row: np.ndarray,
    w: ModulusMajorant,
    f: QuasiPeriodicFunction,
    params: StrongMeanParams,
) -> float:
    """Bracket mean with tails at alpha k / 2 (monotone-row bound shape)."""
    return power_mean(row, _brackets(w, f, params, 2.0, row.size), params.q)


def gm2_rows_rhs(
    row: np.ndarray,
    w: ModulusMajorant,
    f: QuasiPeriodicFunction,
    params: StrongMeanParams,
) -> float:
    """Bracket mean with tails at alpha k / 2^(1+c) (averaged-mass bound)."""
    return power_mean(row, _brackets(w, f, params, params.tail_divisor(), row.size), params.q)


def omega_rows_rhs(
    row: np.ndarray,
    f: QuasiPeriodicFunction,
    q: float,
    p: float,
    grid: WindowGrid | None = None,
) -> float:
    """Weighted power mean of translate moduli omega(pi/(k+1))."""
    return power_mean(row, _omegas(f, [row], p, grid), q)


@dataclass(frozen=True)
class RatioRecord:
    n: int
    lhs: float
    rhs: float
    ratio: float
    flags: tuple[str, ...]


@dataclass(frozen=True)
class RatioSeries:
    theorem: str
    x: float | None
    q: float
    records: tuple[RatioRecord, ...]
    side_condition_ok: bool | None

    @property
    def max_ratio(self) -> float:
        ratios = [r.ratio for r in self.records if not math.isnan(r.ratio)]
        if any(math.isinf(r) for r in ratios):
            return math.inf
        return max(ratios) if ratios else 0.0

    def head_tail_bounded(self, head_end: int, factor: float) -> bool:
        """No blow-up: max ratio past ``head_end`` stays within ``factor``
        times the max ratio up to ``head_end`` (boundary in both parts)."""
        head = [r.ratio for r in self.records if r.n <= head_end and not math.isnan(r.ratio)]
        tail = [r.ratio for r in self.records if r.n >= head_end and not math.isnan(r.ratio)]
        if not head or not tail:
            return True
        return max(tail) <= factor * max(head) + 1e-12


THEOREMS = ("prop4", "thm2", "thm5", "thm6")


def ratio_series(
    f: QuasiPeriodicFunction,
    theorem: str,
    n_values,
    params: StrongMeanParams,
    matrix: SummabilityMatrix | None = None,
    w: ModulusMajorant | None = None,
    x: float | None = None,
    x_grid=None,
    p: float | None = None,
    grid: WindowGrid | None = None,
    side_tol: float = 0.05,
) -> RatioSeries:
    """Per-n lhs/rhs/ratio sweep for one bound shape.

    prop4: dyadic mean at x against w + tail.
    thm5/thm6: matrix strong mean at x against the bracket means.
    thm2: sup of the strong mean over ``x_grid`` against the omega mean.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"theorem must be one of {THEOREMS}, got {theorem!r}")
    n_values = [int(n) for n in n_values]
    needs_matrix = theorem in ("thm2", "thm5", "thm6")
    if needs_matrix and matrix is None:
        raise ValueError(f"{theorem} needs a summability matrix")
    if theorem in ("prop4", "thm5", "thm6"):
        if w is None:
            raise ValueError(f"{theorem} needs a majorant")
        if x is None:
            raise ValueError(f"{theorem} is pointwise; pass x")
    if theorem == "thm2":
        if x_grid is None or len(x_grid) == 0:
            raise ValueError("thm2 needs a nonempty x_grid")
        if p is None:
            raise ValueError("thm2 needs the window exponent p")

    side_ok: bool | None = None
    if needs_matrix and n_values:
        side_ok, _ = side_condition(matrix, n_values, side_tol)

    rows = [_dyadic_row(n) if theorem == "prop4" else matrix.row(n) for n in n_values]
    size = max((row.size for row in rows), default=0)
    if theorem == "thm2":
        xs, bound = x_grid, _omegas(f, rows, p, grid)
    else:
        divisor = params.tail_divisor() if theorem == "thm5" else 2.0
        xs, bound = (x,), _brackets(w, f, params, divisor, size)
    devs = [_deviations(f, xx, size, params) for xx in xs]
    records = []
    for n, row in zip(n_values, rows):
        flags: list[str] = []
        lhs = max(power_mean(row, dev[: row.size], params.q) for dev in devs)
        if theorem == "prop4":
            rhs = float(bound[n])
        else:
            rhs = power_mean(row, bound[: row.size], params.q)
        if rhs > 0.0:
            ratio = lhs / rhs
        elif lhs == 0.0:
            ratio = 0.0
            flags.append("zero-over-zero")
        else:
            ratio = math.inf
            flags.append("infinite-ratio")
        records.append(RatioRecord(n, lhs, rhs, ratio, tuple(flags)))
    return RatioSeries(theorem, x, params.q, tuple(records), side_ok)
