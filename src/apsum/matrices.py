"""Summability matrices and sequence-class constants.

A summability matrix is a family of nonnegative weight rows a[n, :] with
finite support, each summing to 1.  Rows are classified by how much they
may oscillate:

  MS    nonincreasing rows;
  RBVS  rest-variation bounded by the leading entry:
            sum_{k>=m} |a_k - a_{k+1}| <= K a_m;
  GM    block variation bounded by the leading entry:
            sum_{k=m}^{2m-1} |a_k - a_{k+1}| <= K a_m;
  GM2   block variation bounded by the averaged neighbourhood mass
            sum_{k=m}^{2m-1} |a_k - a_{k+1}|
                <= K sum_{k=floor(m/c) v 1}^{floor(c m)} a_k / k,   c > 1.

The *_constant functions return the smallest admissible K for one row
(scanning every m across the support plus one block beyond), with
``math.inf`` as the sentinel for a vacuous denominator against positive
variation.  Nonincreasing rows telescope: their RBVS constant is exactly 1
and their GM constant is at most 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MatrixError",
    "SummabilityMatrix",
    "cesaro_row",
    "is_ms",
    "ms_constant",
    "rbvs_constant",
    "gm_constant",
    "gm2_constant",
    "ClassReport",
    "class_membership",
    "side_condition",
    "cesaro_matrix",
    "riesz_matrix",
    "osc_gm2_matrix",
    "explicit_matrix",
    "matrix_from_dict",
    "load_matrix",
]

ROW_SUM_TOL = 1e-12


class MatrixError(ValueError):
    """Raised for malformed rows or failed construction-time class checks."""


class SummabilityMatrix:
    """Nonnegative row-stochastic weight family with finite rows."""

    def __init__(
        self,
        name: str,
        row_fn: Callable[[int], np.ndarray],
        params: dict | None = None,
    ):
        self.name = name
        self.params = dict(params or {})
        self._row_fn = row_fn
        self._cache: dict[int, np.ndarray] = {}

    def row(self, n: int) -> np.ndarray:
        """Weights (a[n, 0], a[n, 1], ...) of row n, validated and cached."""
        if n < 0:
            raise MatrixError(f"row index must be >= 0, got {n}")
        cached = self._cache.get(n)
        if cached is not None:
            return cached
        r = np.asarray(self._row_fn(n), dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise MatrixError(f"row {n} must be a nonempty vector")
        if np.any(r < 0.0):
            raise MatrixError(f"row {n} has negative weights")
        s = float(r.sum())
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise MatrixError(f"row {n} sums to {s!r}, expected 1")
        r.setflags(write=False)
        self._cache[n] = r
        return r

    def describe(self) -> dict:
        return {"name": self.name, **({"params": self.params} if self.params else {})}


def cesaro_row(n: int) -> np.ndarray:
    """Uniform weights 1/(n+1) on k <= n."""
    if n < 0:
        raise MatrixError(f"n must be >= 0, got {n}")
    return np.full(n + 1, 1.0 / (n + 1))


def _padded(row) -> np.ndarray:
    """Row as float array with one trailing zero (the dropped tail)."""
    r = np.asarray(row, dtype=float)
    return np.concatenate([r, [0.0]])


def is_ms(row) -> bool:
    """True iff the row is nonincreasing (zero tail included)."""
    a = _padded(row)
    return bool(np.all(a[:-1] >= a[1:]))


def ms_constant(row) -> float:
    """Monotonicity defect: 1 for nonincreasing rows, otherwise the sup of
    consecutive growth ratios a_{k+1}/a_k (inf for growth out of a zero)."""
    if is_ms(row):
        return 1.0
    a = _padded(row)
    head, nxt = a[:-1], a[1:]
    pos = head > 0.0
    if np.any(~pos & (nxt > 0.0)):
        return math.inf
    return float(np.max(nxt[pos] / head[pos], initial=1.0))


def rbvs_constant(row) -> float:
    """Smallest K with sum_{k>=m} |a_k - a_{k+1}| <= K a_m for all m."""
    a = _padded(row)
    if not np.any(a > 0.0):
        raise MatrixError("row is identically zero")
    diffs = np.abs(np.diff(a))
    rest = np.concatenate([np.cumsum(diffs[::-1])[::-1], [0.0]])
    pos = a > 0.0
    if np.any(~pos & (rest > 0.0)):
        return math.inf
    return float(np.max(rest[pos] / a[pos], initial=0.0))


def _window_sums(d: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """sum(d[lo:hi]) for each window [lo, hi), 0 for an empty one.

    Each window is summed on its own (one reduceat call), never as a
    difference of prefix sums, which cancels on rows that decay
    geometrically.  Requires stops <= d.size.
    """
    ends = np.append(d, 0.0)  # a stop at d.size is a valid reduceat index
    sums = np.add.reduceat(ends, np.stack([starts, stops], axis=1).ravel())[::2]
    return np.where(starts < stops, sums, 0.0)


def _block_variations(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m = 1..len(a) and sum_{k=m}^{2m-1} |a_k - a_{k+1}| for each m, with
    the row extended by zeros."""
    m = np.arange(1, a.size + 1)
    d = np.abs(np.diff(np.concatenate([a, np.zeros(a.size + 1)])))
    return m, _window_sums(d, m, 2 * m)


def gm_constant(row) -> float:
    """Smallest K with sum_{k=m}^{2m-1} |a_k - a_{k+1}| <= K a_m for m >= 1."""
    a = _padded(row)
    m, var = _block_variations(a)
    live = var != 0.0
    am = np.append(a, 0.0)[m]
    if np.any(live & (am == 0.0)):
        return math.inf
    return float(np.max(var[live] / am[live], initial=0.0))


def gm2_constant(row, c: float) -> float:
    """Smallest K bounding block variation by the averaged mass over
    [floor(m/c) v 1, floor(c m)]; requires c > 1.

    The lower index is clamped to 1 so the k = 0 weight never enters the
    divided-by-k sum.
    """
    if not c > 1.0:
        raise MatrixError(f"c must be > 1, got {c}")
    a = _padded(row)
    m, var = _block_variations(a)
    live = var != 0.0
    k = np.arange(a.size)
    mass = np.where(k >= 1, a / np.maximum(k, 1), 0.0)
    lo = np.maximum(1, np.floor(m / c)).astype(int)
    hi = np.minimum(np.floor(c * m), a.size - 1).astype(int)
    denom = _window_sums(mass, lo, hi + 1)
    if np.any(live & (denom == 0.0)):
        return math.inf
    return float(np.max(var[live] / denom[live], initial=0.0))


@dataclass(frozen=True)
class ClassReport:
    class_name: str
    n_values: tuple[int, ...]
    constants: tuple[float, ...]
    sup_constant: float
    threshold: float
    member: bool
    side_condition_ok: bool | None
    first_weights: tuple[float, ...]
    c: float | None = None


def side_condition(
    matrix: SummabilityMatrix, n_values: Sequence[int], tol: float = 0.05
) -> tuple[bool, tuple[float, ...]]:
    """Check that a[n, 0] is heading to zero across the sweep.

    Verdict: every a[n, 0] over the last quarter of the sweep is <= tol.
    A finite sweep can only witness the trend, not the limit.
    """
    firsts = tuple(float(matrix.row(n)[0]) for n in n_values)
    if not firsts:
        return True, firsts
    tail = firsts[3 * len(firsts) // 4 :] or firsts[-1:]
    return all(v <= tol for v in tail), firsts


def class_membership(
    matrix: SummabilityMatrix,
    class_name: str,
    threshold: float,
    n_range: Sequence[int],
    c: float = 2.0,
    side_tol: float = 0.05,
) -> ClassReport:
    """Per-row class constants and the sup-over-rows membership verdict."""
    n_values = tuple(int(n) for n in n_range)
    constants: list[float] = []
    for n in n_values:
        r = matrix.row(n)
        if class_name == "ms":
            constants.append(ms_constant(r))
        elif class_name == "rbvs":
            constants.append(rbvs_constant(r))
        elif class_name == "gm":
            constants.append(gm_constant(r))
        elif class_name == "gm2":
            constants.append(gm2_constant(r, c))
        else:
            raise MatrixError(f"unknown class {class_name!r}")
    sup_c = max(constants) if constants else 0.0
    side_ok, firsts = (
        side_condition(matrix, n_values, side_tol) if n_values else (None, ())
    )
    return ClassReport(
        class_name=class_name,
        n_values=n_values,
        constants=tuple(constants),
        sup_constant=sup_c,
        threshold=threshold,
        member=bool(sup_c <= threshold),
        side_condition_ok=side_ok,
        first_weights=firsts,
        c=c if class_name == "gm2" else None,
    )


def cesaro_matrix() -> SummabilityMatrix:
    return SummabilityMatrix("cesaro", cesaro_row)


def riesz_matrix(
    weights: Sequence[float] | None = None, exponent: float | None = None
) -> SummabilityMatrix:
    """Rows a[n, k] = p_k / (p_0 + ... + p_n) for user weights p.

    Either an explicit weight list or the power rule p_k = (k+1)**exponent.
    """
    if (weights is None) == (exponent is None):
        raise MatrixError("riesz needs exactly one of weights= or exponent=")
    if weights is not None:
        p = np.asarray(list(weights), dtype=float)
        if p.size == 0 or np.any(p < 0.0) or p[0] <= 0.0:
            raise MatrixError("riesz weights must be nonnegative with p_0 > 0")

        def row_fn(n: int) -> np.ndarray:
            if n >= p.size:
                raise MatrixError(
                    f"riesz weight list of length {p.size} cannot build row {n}"
                )
            head = p[: n + 1]
            return head / head.sum()

        params = {"weights": [float(v) for v in p]}
    else:
        ex = float(exponent)

        def row_fn(n: int) -> np.ndarray:
            head = (np.arange(n + 1) + 1.0) ** ex
            return head / head.sum()

        params = {"exponent": ex}
    return SummabilityMatrix("riesz", row_fn, params)


def _dyadic_holes(limit: int) -> np.ndarray:
    """Indices k >= 1 with k+1 a power of two: 1, 3, 7, 15, ..."""
    holes = []
    p = 2
    while p - 1 <= limit:
        holes.append(p - 1)
        p *= 2
    return np.array(holes, dtype=int)


def osc_gm2_row(n: int) -> np.ndarray:
    """Flat weights on k <= n with zeros at dyadic indices, normalized.

    The sudden drops to zero break monotonicity (and the leading-entry
    variation bounds), while the averaged-neighbourhood bound absorbs them
    with a uniformly bounded constant at c = 2.
    """
    if n < 0:
        raise MatrixError(f"n must be >= 0, got {n}")
    b = np.ones(n + 1)
    holes = _dyadic_holes(n)
    b[holes[holes <= n]] = 0.0
    return b / b.sum()


def osc_gm2_matrix(
    c: float = 2.0,
    gm2_threshold: float = 8.0,
    check_rows: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 192, 256),
) -> SummabilityMatrix:
    """Oscillating non-monotone family, class-checked at construction.

    Raises MatrixError if any check row exceeds the claimed gm2 constant or
    if the family fails to break monotonicity where it should.
    """
    m = SummabilityMatrix("osc-gm2", osc_gm2_row, {"c": c})
    for n in check_rows:
        k = gm2_constant(m.row(n), c)
        if not k <= gm2_threshold:
            raise MatrixError(
                f"osc-gm2 row {n} has gm2 constant {k:.3g} > {gm2_threshold}"
            )
    if is_ms(m.row(max(4, check_rows[0]))):
        raise MatrixError("osc-gm2 family unexpectedly monotone")
    return m


def explicit_matrix(rows: Sequence[Sequence[float]]) -> SummabilityMatrix:
    stored = [np.asarray(r, dtype=float) for r in rows]
    if not stored:
        raise MatrixError("explicit matrix needs at least one row")

    def row_fn(n: int) -> np.ndarray:
        if n >= len(stored):
            raise MatrixError(f"explicit matrix has {len(stored)} rows, asked for {n}")
        return stored[n]

    return SummabilityMatrix("explicit", row_fn, {"rows": len(stored)})


def matrix_from_dict(data: dict) -> SummabilityMatrix:
    try:
        kind = data["type"]
    except (KeyError, TypeError) as exc:
        raise MatrixError(f"matrix data missing 'type': {exc}") from exc
    params = data.get("params", {})
    if kind == "explicit":
        return explicit_matrix(data["rows"])
    if kind == "cesaro":
        return cesaro_matrix()
    if kind == "riesz":
        return riesz_matrix(
            weights=params.get("weights"), exponent=params.get("exponent")
        )
    if kind == "osc-gm2":
        return osc_gm2_matrix(c=float(params.get("c", 2.0)))
    raise MatrixError(f"unknown matrix type {kind!r}")


def load_matrix(path) -> SummabilityMatrix:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixError(f"matrix file is not valid JSON: {exc}") from None
    return matrix_from_dict(data)
