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

A class constant is the smallest admissible K over every m, with
``math.inf`` as the sentinel for a vacuous denominator against positive
variation.  ``class_constants`` gives every row of a sweep its constant
from one zero-padded row table, and ``class_membership`` reads the
sup-over-rows verdict from them.  Nonincreasing rows telescope: their MS
and RBVS constants are exactly 1 and their GM constant is at most 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spectra import _keys, _number

__all__ = [
    "MatrixError",
    "SummabilityMatrix",
    "cesaro_row",
    "class_constants",
    "ClassReport",
    "class_membership",
    "side_condition",
    "row_table",
    "cesaro_matrix",
    "riesz_matrix",
    "osc_gm2_matrix",
    "explicit_matrix",
    "matrix_from_dict",
    "load_matrix",
]

ROW_SUM_TOL = 1e-12
# The paper's window factor c of GM2, and the largest a[n, 0] the side
# condition lets through over the last quarter of a sweep.
GM2_C = 2.0
SIDE_TOL = 0.05


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
        if not abs(s - 1.0) <= ROW_SUM_TOL:  # a NaN or infinite weight fails too
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


CLASS_NAMES = ("ms", "rbvs", "gm", "gm2")


def row_table(rows) -> tuple[np.ndarray, np.ndarray]:
    """The rows zero-padded to one (rows, S) table, S the longest row plus
    its trailing zero (the dropped tail), and the row lengths.  The padding
    moves no power mean or class constant; no rows give a (0, 1) table."""
    sizes = np.array([len(row) for row in rows], dtype=int)
    table = np.zeros((sizes.size, sizes.max(initial=0) + 1))
    table[np.arange(table.shape[1]) < sizes[:, None]] = np.concatenate([[], *rows])
    return table, sizes


def _window_sums(table: np.ndarray, mask: np.ndarray, lo, hi) -> np.ndarray:
    """sum(table[r, lo:hi]) at each masked entry of a (rows, M) grid, else 0;
    lo < hi <= table width where masked.  One reduceat over the flattened
    table (plus one zero, so a stop may end the last row) sums each window
    on its own, the same way whatever follows it, and never as a prefix-sum
    difference, which cancels on rows that decay geometrically."""
    base = np.nonzero(mask)[0] * table.shape[1]
    bounds = np.stack([base + np.broadcast_to(b, mask.shape)[mask] for b in (lo, hi)], axis=1)
    out = np.zeros(mask.shape)
    out[mask] = np.add.reduceat(np.append(table, 0.0), bounds.ravel())[::2]
    return out


def _sup_ratio(num: np.ndarray, den: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Per row, the sup of num/den over the entries with num != 0 (``floor``
    if it is larger), or inf where such an entry has den == 0."""
    live = num != 0.0
    ratio = np.divide(num, den, out=np.zeros_like(num), where=live & (den != 0.0))
    return np.where(np.any(live & (den == 0.0), axis=1), math.inf, ratio.max(axis=1, initial=floor))


def _check_class(class_name: str, c: float) -> None:
    if class_name not in CLASS_NAMES:
        raise MatrixError(f"unknown class {class_name!r}")
    if class_name == "gm2" and not 1.0 < c < math.inf:
        raise MatrixError(f"c must be > 1 and finite, got {c}")


def class_constants(class_name: str, rows, c: float = GM2_C) -> np.ndarray:
    """The class constant of every nonnegative row, all from one zero-padded
    row table; MatrixError for an unknown class, a gm2 ``c`` outside
    (1, inf) or an rbvs row that is identically zero.  A row reads only its
    own entries and the zeros after them, so each constant equals the
    one-row call bit for bit."""
    _check_class(class_name, c)
    a, sizes = row_table(rows)
    if class_name == "ms":
        return _sup_ratio(a[:, 1:], a[:, :-1], floor=1.0)
    if class_name == "rbvs":
        if not np.all(np.any(a > 0.0, axis=1)):
            raise MatrixError("row is identically zero")
        rest = np.cumsum(np.abs(np.diff(a, append=0.0))[:, ::-1], axis=1)[:, ::-1]
        return _sup_ratio(rest, a)
    # Block variations over [m, 2m), the rows extended by zeros; from
    # m = len(row) on a block reads only zeros, so it is not summed.
    m = np.arange(1, a.shape[1])
    d = np.abs(np.diff(np.concatenate([a, np.zeros_like(a)], axis=1)))
    var = _window_sums(d, m < sizes[:, None], m, 2 * m)
    if class_name == "gm":
        return _sup_ratio(var, a[:, 1:])
    # Masses a_k / k over [floor(m/c) v 1, floor(c m)], k in column k - 1:
    # k = 0 never enters, and the top is clamped to the row's own trailing
    # zero, not the table width, lest extra zeros regroup a window's sum.
    lo = np.maximum(1, np.floor(m / c)).astype(int)
    hi = np.minimum(np.floor(c * m), sizes[:, None]).astype(int)
    return _sup_ratio(var, _window_sums(a[:, 1:] / m, var != 0.0, lo - 1, hi))


@dataclass(frozen=True)
class ClassReport:
    class_name: str
    n_values: tuple[int, ...]
    constants: tuple[float, ...]
    sup_constant: float
    threshold: float
    member: bool
    side_condition_ok: bool | None
    c: float | None = None


def side_condition(
    matrix: SummabilityMatrix, n_values: Sequence[int], tol: float = SIDE_TOL
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
    c: float = GM2_C,
) -> ClassReport:
    """Class constants of the rows of ``n_range``, all from one row table, and
    the sup-over-rows verdict; a bad class or c raises before any row is read."""
    _check_class(class_name, c)
    if math.isnan(threshold):
        raise MatrixError("threshold must be a number, got nan")
    n_values = tuple(int(n) for n in n_range)
    rows = [matrix.row(n) for n in n_values]
    constants = tuple(class_constants(class_name, rows, c).tolist()) if rows else ()
    sup_c = max(constants) if constants else 0.0
    side_ok = side_condition(matrix, n_values)[0] if n_values else None
    return ClassReport(
        class_name=class_name,
        n_values=n_values,
        constants=constants,
        sup_constant=sup_c,
        threshold=threshold,
        member=bool(sup_c <= threshold),
        side_condition_ok=side_ok,
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


# The gm2 constant every osc-gm2 check row must stay within, and those rows.
OSC_GM2_THRESHOLD = 8.0
OSC_GM2_CHECK_ROWS = (1, 2, 4, 8, 16, 32, 64, 128, 192, 256)


def osc_gm2_matrix(c: float = GM2_C) -> SummabilityMatrix:
    """Oscillating non-monotone family, class-checked at construction.

    Raises MatrixError if any check row exceeds the claimed gm2 constant or
    if the family fails to break monotonicity where it should.  Every c in
    (1, 2) fails: the gm2 window [1, floor(c)] of row 2, (1/2, 0, 1/2),
    holds only its zero a_1, so that row's constant is inf.
    """
    m = SummabilityMatrix("osc-gm2", osc_gm2_row, {"c": c})
    report = class_membership(m, "gm2", OSC_GM2_THRESHOLD, OSC_GM2_CHECK_ROWS, c)
    for n, k in zip(report.n_values, report.constants):
        if not k <= OSC_GM2_THRESHOLD:
            raise MatrixError(
                f"osc-gm2 row {n} has gm2 constant {k:.3g} > {OSC_GM2_THRESHOLD}"
            )
    if np.all(np.diff(m.row(4)) <= 0.0):
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


# Per matrix type: its builder and the reader of each key of its params.
_MATRIX_TYPES = {
    "explicit": (explicit_matrix, {}),
    "cesaro": (cesaro_matrix, {}),
    "riesz": (riesz_matrix, {"weights": lambda ps: [_number(p) for p in ps], "exponent": _number}),
    "osc-gm2": (osc_gm2_matrix, {"c": _number}),
}


def matrix_from_dict(data: dict) -> SummabilityMatrix:
    """The matrix of a JSON object ``type``, ``params`` and, if explicit,
    ``rows``; MatrixError for any other key or a malformed value."""
    if not isinstance(data, dict) or "type" not in data:
        raise MatrixError(f"matrix data must be an object with a 'type', got {data!r}")
    kind = data["type"]
    if not (isinstance(kind, str) and kind in _MATRIX_TYPES):
        raise MatrixError(f"unknown matrix type {kind!r}")
    build, readers = _MATRIX_TYPES[kind]
    try:
        _keys(data, ("type", "params", "rows") if kind == "explicit" else ("type", "params"), "matrix")
        params = _keys(data.get("params", {}), readers, f"{kind} params")
        if kind == "explicit":
            return build([[_number(v) for v in row] for row in data["rows"]])
        return build(**{key: readers[key](value) for key, value in params.items()})
    except MatrixError:
        raise
    except KeyError as exc:
        raise MatrixError(f"{kind} matrix data missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise MatrixError(f"malformed {kind} matrix data: {exc}") from None


def load_matrix(path) -> SummabilityMatrix:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixError(f"matrix file is not valid JSON: {exc}") from None
    return matrix_from_dict(data)
