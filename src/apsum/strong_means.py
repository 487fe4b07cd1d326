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

``ratio_sweep`` pads the rows of a run into one weight table (``row_table``),
takes each side's means of every row, x and q with one ``power_mean`` per q,
and reports lhs, rhs, lhs/rhs with 0/0 as ratio 0 (flagged) and finite/0
as inf.  ``strong_mean_rows`` alone gives the lhs means of a weight table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import SummabilityMatrix, row_table, side_condition
from .measures import WindowGrid, modulus_omega
from .spectra import QuasiPeriodicFunction

__all__ = [
    "THEOREMS",
    "StrongMeanParams",
    "power_mean",
    "RatioRecord",
    "RatioSeries",
    "ratio_sweep",
    "strong_mean_rows",
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

    def tail_divisor(self) -> float:
        if self.literal_c_exponent:
            return 2.0 ** (1.0 + self.c)
        return 2.0 ** (1 + math.floor(self.c))


def power_mean(weights, values, q: float):
    """( sum w_k v_k^q )^(1/q) over the last axis for nonnegative v and
    weights summing to 1: a float for one row, an array for a table.

    Scaling by the largest weighed value keeps small q stable and makes
    amplitude homogeneity exact to rounding.  Rows sum left to right, so
    zeros padded after a row leave its mean unchanged to the bit."""
    w, v = np.broadcast_arrays(np.asarray(weights, dtype=float), np.abs(values))
    live = w > 0.0
    top = np.max(v, axis=-1, initial=0.0, where=live, keepdims=True)
    terms = w * np.divide(v, top, out=np.zeros(v.shape), where=live & (top > 0.0)) ** q
    total = np.cumsum(terms, axis=-1)[..., -1] if v.shape[-1] else np.zeros(v.shape[:-1])
    means = top[..., 0] * total ** (1.0 / q)
    return float(means) if means.ndim == 0 else means


def strong_mean_rows(f: QuasiPeriodicFunction, xs, table: np.ndarray, qs, alpha: float):
    """H_n(x) of each row of a weight table as one (q, x, row) array: the
    deviations |S_{alpha k/2} f(x) - f(x)| of every x and k from one ladder
    call, and one power_mean call per q."""
    xs = np.asarray(xs, dtype=float)
    ladder = f.partial_sums(xs, 0.5 * alpha * np.arange(table.shape[1]))
    devs = np.abs(ladder - f(xs)[:, None])[:, None, :]
    return np.array([power_mean(table, devs, q) for q in qs])


def _brackets(w, f: QuasiPeriodicFunction, params, divisor: float, size: int) -> np.ndarray:
    """w(pi/(k+1)) + tail(alpha k / divisor) for k < size."""
    ks = np.arange(size)
    return w(math.pi / (ks + 1)) + f.spectrum.tail_mass(params.alpha * ks / divisor)


def _omegas(f: QuasiPeriodicFunction, table: np.ndarray, p: float, grid) -> np.ndarray:
    """omega(pi/(k+1)) at each k some row of the table weighs, else 0: one
    modulus_omega call."""
    used = np.any(table > 0.0, axis=0)
    omegas = np.zeros(used.size)
    omegas[used] = modulus_omega(f, math.pi / (np.flatnonzero(used) + 1), p, grid)
    return omegas


def _dyadic_row(n: int) -> np.ndarray:
    """Uniform weights 1/(n+1) on the block k in [n, 2n]."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    row = np.zeros(2 * n + 1)
    row[n:] = 1.0 / (n + 1)
    return row


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
        return max((r.ratio for r in self.records if not math.isnan(r.ratio)), default=0.0)

    def head_tail_bounded(self, head_end: int, factor: float) -> bool:
        """No blow-up: the max ratio past ``head_end`` stays within
        ``factor`` times the max ratio up to ``head_end`` (boundary in both
        parts), or the ratios stopped rising: their max over n in (N/2, N]
        is at most their max over (N/4, N/2], N the largest n.  With either
        block empty the head/tail test decides alone."""
        ratios = [(r.n, r.ratio) for r in self.records if not math.isnan(r.ratio)]
        head = [v for n, v in ratios if n <= head_end]
        tail = [v for n, v in ratios if n >= head_end]
        if not head or not tail or max(tail) <= factor * max(head) + 1e-12:
            return True
        top = max(r.n for r in self.records)
        last = [v for n, v in ratios if top / 2 < n <= top]
        before = [v for n, v in ratios if top / 4 < n <= top / 2]
        return bool(last and before) and max(last) <= max(before)


THEOREMS = ("prop4", "thm2", "thm5", "thm6")


def _record(n: int, lhs: float, rhs: float) -> RatioRecord:
    """lhs/rhs with 0/0 as ratio 0 and finite/0 as inf, each flagged."""
    if rhs > 0.0:
        return RatioRecord(n, lhs, rhs, lhs / rhs, ())
    if lhs == 0.0:
        return RatioRecord(n, lhs, rhs, 0.0, ("zero-over-zero",))
    return RatioRecord(n, lhs, rhs, math.inf, ("infinite-ratio",))


def ratio_sweep(
    f: QuasiPeriodicFunction,
    theorem: str,
    n_values,
    params,
    points,
    matrix: SummabilityMatrix | None = None,
    x_grid=None,
    p: float | None = None,
    grid: WindowGrid | None = None,
    side_tol: float = 0.05,
) -> list[RatioSeries]:
    """Per-n lhs/rhs/ratio sweeps for one bound shape, one per (x, q).

    ``params`` holds one StrongMeanParams per q, all with the same alpha, c
    and exponent switch; ``points`` holds one (x, w) pair per evaluation
    point.  The weight table, the side condition, the omega table and the
    deviations of every point (one ladder call) are built once, the bracket
    table once per point, and each side takes one ``power_mean`` call per q.  Series come x-major, in the
    order of ``points`` and ``params``.

    prop4: dyadic mean at x against w + tail.
    thm5/thm6: matrix strong mean at x against the bracket means.
    thm2: sup of the strong mean over ``x_grid`` (every grid point in the
    one ladder call) against the omega mean; x only labels the series.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"theorem must be one of {THEOREMS}, got {theorem!r}")
    n_values = [int(n) for n in n_values]
    needs_matrix = theorem in ("thm2", "thm5", "thm6")
    if needs_matrix and matrix is None:
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
    if len({(s.alpha, s.c, s.literal_c_exponent) for s in params}) > 1:
        raise ValueError("params must share alpha, c and literal_c_exponent")
    if not params or not points:
        return []

    side_ok: bool | None = None
    if needs_matrix and n_values:
        side_ok, _ = side_condition(matrix, n_values, side_tol)

    base, qs = params[0], [s.q for s in params]
    row = _dyadic_row if theorem == "prop4" else matrix.row
    table, _ = row_table([row(n) for n in n_values])
    if theorem == "thm2":
        lhs = strong_mean_rows(f, x_grid, table, qs, base.alpha).max(axis=1, keepdims=True)
        bounds = _omegas(f, table, p, grid)[None]
    else:
        lhs = strong_mean_rows(f, [x for x, _ in points], table, qs, base.alpha)
        divisor = base.tail_divisor() if theorem == "thm5" else 2.0
        bounds = np.array([_brackets(w, f, base, divisor, table.shape[1]) for _, w in points])
    if theorem == "prop4":
        rhs = bounds[:, n_values]
    else:
        rhs = np.array([power_mean(table, bounds[:, None, :], q) for q in qs])
    shape = (len(qs), len(points), len(n_values))
    lhs, rhs = np.broadcast_to(lhs, shape).tolist(), np.broadcast_to(rhs, shape).tolist()
    return [
        RatioSeries(theorem, x, q, tuple(map(_record, n_values, lhs[j][i], rhs[j][i])), side_ok)
        for i, (x, _) in enumerate(points)
        for j, q in enumerate(qs)
    ]

