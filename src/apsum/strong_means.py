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

``ratio_series`` sweeps n and reports lhs, rhs, and lhs/rhs records with
0/0 reported as ratio 0 (flagged) and finite/0 as the inf sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrices import SummabilityMatrix, side_condition
from .measures import (
    ModulusMajorant,
    WindowGrid,
    best_approx_tail,
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

    def delta(self, n: int) -> float:
        return math.pi / (n + 1)

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


def strong_mean(
    f: QuasiPeriodicFunction,
    x: float,
    matrix: SummabilityMatrix,
    n: int,
    params: StrongMeanParams,
) -> float:
    """Weighted power mean of cutoff deviations with row n of the matrix."""
    row = matrix.row(n)
    ks = np.flatnonzero(row)
    if ks.size == 0:
        return 0.0
    devs = np.abs(f.partial_sums(x, params.gamma(ks)) - f(x))
    return power_mean(row[ks], devs, params.q)


def dyadic_strong_mean(
    f: QuasiPeriodicFunction, x: float, n: int, params: StrongMeanParams
) -> float:
    """Uniform strong mean over the dyadic block k in [n, 2n]."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    ks = np.arange(n, 2 * n + 1)
    devs = np.abs(f.partial_sums(x, params.gamma(ks)) - f(x))
    return power_mean(np.full(ks.size, 1.0 / (n + 1)), devs, params.q)


def prop_dyadic_rhs(
    w: ModulusMajorant, f: QuasiPeriodicFunction, n: int, params: StrongMeanParams
) -> float:
    """w(pi/(n+1)) + spectral tail above alpha n / 2."""
    return float(w(params.delta(n))) + best_approx_tail(f, params.gamma(n))


def _bracket_mean(
    row: np.ndarray,
    w: ModulusMajorant,
    f: QuasiPeriodicFunction,
    params: StrongMeanParams,
    divisor: float,
) -> float:
    ks = np.flatnonzero(row)
    if ks.size == 0:
        return 0.0
    brackets = w(math.pi / (ks + 1)) + f.spectrum.tail_mass(params.alpha * ks / divisor)
    return power_mean(row[ks], brackets, params.q)


def ms_rows_rhs(
    row: np.ndarray,
    w: ModulusMajorant,
    f: QuasiPeriodicFunction,
    params: StrongMeanParams,
) -> float:
    """Bracket mean with tails at alpha k / 2 (monotone-row bound shape)."""
    return _bracket_mean(row, w, f, params, 2.0)


def gm2_rows_rhs(
    row: np.ndarray,
    w: ModulusMajorant,
    f: QuasiPeriodicFunction,
    params: StrongMeanParams,
) -> float:
    """Bracket mean with tails at alpha k / 2^(1+c) (averaged-mass bound)."""
    return _bracket_mean(row, w, f, params, params.tail_divisor())


def omega_rows_rhs(
    row: np.ndarray,
    f: QuasiPeriodicFunction,
    q: float,
    p: float,
    grid: WindowGrid | None = None,
) -> float:
    """Weighted power mean of translate moduli omega(pi/(k+1))."""
    ks = np.flatnonzero(row)
    if ks.size == 0:
        return 0.0
    oms = np.array([_omega_cached(f, int(k), p, grid or WindowGrid()) for k in ks])
    return power_mean(row[ks], oms, q)


# A thm2 run looks up one key per k of its widest row (25 for n up to 24);
# the bound keeps the cache from growing across runs in one process.
@lru_cache(maxsize=1024)
def _omega_cached(f: QuasiPeriodicFunction, k: int, p: float, grid: WindowGrid) -> float:
    return modulus_omega(f, math.pi / (k + 1), p, grid)


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

    @property
    def argmax_n(self) -> int | None:
        valid = [r for r in self.records if not math.isnan(r.ratio)]
        if not valid:
            return None
        return max(valid, key=lambda r: r.ratio).n

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

    records = []
    for n in n_values:
        flags: list[str] = []
        if theorem == "prop4":
            lhs = dyadic_strong_mean(f, x, n, params)
            rhs = prop_dyadic_rhs(w, f, n, params)
        elif theorem == "thm5":
            lhs = strong_mean(f, x, matrix, n, params)
            rhs = gm2_rows_rhs(matrix.row(n), w, f, params)
        elif theorem == "thm6":
            lhs = strong_mean(f, x, matrix, n, params)
            rhs = ms_rows_rhs(matrix.row(n), w, f, params)
        else:
            lhs = max(strong_mean(f, xx, matrix, n, params) for xx in x_grid)
            rhs = omega_rows_rhs(matrix.row(n), f, params.q, p, grid)
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
