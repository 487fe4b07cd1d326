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
variation.  Each family maps an array of n to the zero-padded table of
those rows in one call; ``SummabilityMatrix.table`` validates it once and
keeps the last one.  ``class_membership`` gives every row of a sweep its
constant from that table and reads the sup-over-rows verdict from them;
``class_constants`` does the same for a list of rows.  Nonincreasing rows
telescope: their MS and RBVS constants are exactly 1 and their GM constant
is at most 1.

The builtin families are Riesz-type, a[n, k] = p_k [k <= n] / P_n with
P_n = p_0 + ... + p_n: Cesaro has p = 1, osc-gm2 a 0/1 mask and riesz
p_k = b_k^r.  ``SummabilityMatrix.weights`` gives p and P, so a strong
mean or the side condition needs no table.
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
    """Raised for malformed rows or family parameters."""


def _row_indices(n_values) -> np.ndarray:
    """The row indices n as an integer array; MatrixError naming the first
    negative one."""
    ns = np.asarray(n_values, dtype=int)
    if np.any(ns < 0):
        raise MatrixError(f"row index must be >= 0, got {ns[ns < 0][0]}")
    return ns


class SummabilityMatrix:
    """Nonnegative row-stochastic weight family with finite rows.

    ``table_fn`` maps an integer array of n to the zero-padded (len(n), S)
    table of those rows, S the longest row plus its trailing zero, and the
    row sizes; ``table`` validates it once.  The matrix keeps its last
    table, so every reader of one sweep shares one build.  A Riesz-type
    family has ``weights_fn``, which maps the same array to the weights
    p_0..p_N of its rows a[n, k] = p_k [k <= n] / P_n, N the largest n;
    ``weights`` checks and keeps them, and with no ``table_fn`` the table
    is built from them."""

    def __init__(
        self, name: str, table_fn: Callable | None = None, params: dict | None = None,
        weights_fn: Callable | None = None,
    ):
        if table_fn is None and weights_fn is None:
            raise MatrixError(f"{name} needs a table or a weight function")
        self.name = name
        self.params = dict(params or {})
        self._table_fn = table_fn
        self._weights_fn = weights_fn
        self._last: tuple | None = None
        self._last_weights: tuple | None = None

    def weights(self, n_values) -> tuple[np.ndarray, np.ndarray] | None:
        """The read-only weights p_0..p_N of the rows of ``n_values``, N the
        largest n, and their prefix sums P_0..P_N, checked once (p >= 0 and
        p_0 > 0, else MatrixError) and kept until a longer or shorter p is
        asked for.  None for a matrix with no weight sequence and for one
        whose weights or sums overflow: the table gives those rows."""
        if self._weights_fn is None:
            return None
        ns = _row_indices(n_values)
        size = int(ns.max(initial=0)) + 1
        if self._last_weights is not None and self._last_weights[0] == size:
            return self._last_weights[1]
        p = self._weights_fn(ns)
        if not (p[0] > 0.0 and np.all(p >= 0.0)):
            raise MatrixError(f"{self.name} weights must be >= 0 with p_0 > 0")
        with np.errstate(over="ignore"):
            sums = np.cumsum(p)
        out = None
        if math.isfinite(sums[-1]):
            p.setflags(write=False)
            sums.setflags(write=False)
            out = p, sums
        self._last_weights = (size, out)
        return out

    def _weights_table(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows p_k [k <= n] / P_n of ``weights_fn``, for ``table`` to
        validate."""
        k, live, sizes = _support(ns)
        p = self._weights_fn(ns)
        return np.where(live, np.append(p, 0.0)[: k.size], 0.0) / np.cumsum(p)[ns][:, None], sizes

    def table(self, n_values) -> tuple[np.ndarray, np.ndarray]:
        """The read-only weight table of the rows of ``n_values`` and their
        sizes, built and validated once and kept until another n range is
        asked for; MatrixError naming the first bad row."""
        ns = _row_indices(n_values)
        key = ns.tobytes()
        if self._last is not None and self._last[0] == key:
            return self._last[1:]
        table, sizes = (self._table_fn or self._weights_table)(ns)
        negative = np.any(table < 0.0, axis=1)
        # a NaN or infinite weight fails the sum test too
        bad = negative | ~(np.abs(table.sum(axis=1) - 1.0) <= ROW_SUM_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            n = ns[i]
            if negative[i]:
                raise MatrixError(f"row {n} has negative weights")
            raise MatrixError(f"row {n} sums to {float(table[i, : sizes[i]].sum())!r}, expected 1")
        table.setflags(write=False)
        sizes.setflags(write=False)
        self._last = (key, table, sizes)
        return table, sizes

    def describe(self) -> dict:
        return {"name": self.name, **({"params": self.params} if self.params else {})}


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
    if it is larger), or inf where such an entry has den == 0; a ratio
    beyond the float range (a subnormal den) is inf too."""
    live = num != 0.0
    with np.errstate(over="ignore"):
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
    return _table_constants(class_name, *row_table(rows), c)


def _table_constants(class_name: str, a: np.ndarray, sizes: np.ndarray, c: float) -> np.ndarray:
    """``class_constants`` of the rows of a checked class and a row table."""
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
    # c is clamped to the width first, which moves no top, so a huge c
    # does not overflow the product.
    lo = np.maximum(1, np.floor(m / c)).astype(int)
    hi = np.minimum(np.floor(min(c, a.shape[1]) * m), sizes[:, None]).astype(int)
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
    """Check that a[n, 0] is heading to zero across the sweep: p_0 / P_n
    from the matrix's weights, else column 0 of the sweep's row table.

    Verdict: every a[n, 0] over the last quarter of the sweep is <= tol.
    A finite sweep can only witness the trend, not the limit.
    """
    weights = matrix.weights(n_values)
    if weights is None:
        firsts = matrix.table(n_values)[0][:, 0]
    else:
        p, sums = weights
        firsts = p[0] / sums[np.asarray(n_values, dtype=int)]
    firsts = tuple(firsts.tolist())
    tail = firsts[3 * len(firsts) // 4 :] or firsts[-1:]
    return all(v <= tol for v in tail), firsts


def class_membership(
    matrix: SummabilityMatrix,
    class_name: str,
    threshold: float,
    n_range: Sequence[int],
    c: float = GM2_C,
) -> ClassReport:
    """Class constants of the rows of ``n_range`` and the side condition,
    all from the matrix's one table of those rows, and the sup-over-rows
    verdict; a bad class or c raises before any row is read."""
    _check_class(class_name, c)
    if math.isnan(threshold):
        raise MatrixError("threshold must be a number, got nan")
    n_values = tuple(int(n) for n in n_range)
    constants, side_ok = (), None
    if n_values:
        constants = tuple(_table_constants(class_name, *matrix.table(n_values), c).tolist())
        side_ok = side_condition(matrix, n_values)[0]
    sup_c = max(constants) if constants else 0.0
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


def _support(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns k of the table of rows n, the mask k <= n and the row
    sizes n + 1; the last column is every row's trailing zero."""
    sizes = ns + 1
    k = np.arange(sizes.max(initial=0) + 1)
    return k, k <= ns[:, None], sizes


def _cesaro_weights(ns: np.ndarray) -> np.ndarray:
    """p_k = 1, so a[n, k] = 1/(n+1) on k <= n."""
    return np.ones(ns.max(initial=0) + 1)


def cesaro_matrix() -> SummabilityMatrix:
    return SummabilityMatrix("cesaro", weights_fn=_cesaro_weights)


def _riesz_bases(bases: np.ndarray | None, ns: np.ndarray) -> np.ndarray:
    """b_0..b_N, N the largest n: the weight list's head, or b_k = k + 1
    if None; a list too short for a row names the first such n asked for."""
    size = ns.max(initial=0) + 1
    if bases is None:
        return np.arange(size) + 1.0
    if bases.size < size:
        n = ns[ns >= bases.size][0]
        raise MatrixError(f"riesz weight list of length {bases.size} cannot build row {n}")
    return bases[:size]


def _riesz_table(bases: np.ndarray | None, r: float) -> Callable:
    """Rows a[n, k] = p_k / sum_{j <= n} p_j with p_k = b_k^r, b a weight
    list (r = 1) or, if None, b_k = k + 1: the powers once for the longest
    row, each row divided by its own prefix's sum.  A row whose powers or
    sum overflow (only at r > 0) divides by its largest power first, so its
    weights are (b_k / max b)^r over their sum."""

    def table(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k, live, sizes = _support(ns)
        b = _riesz_bases(bases, ns)[: k.size - 1]  # none for no rows
        with np.errstate(over="ignore"):
            powers = b**r
            sums = np.array([powers[:size].sum() for size in sizes.tolist()])
        out = np.where(live, np.append(powers, 0.0), 0.0)
        for i in np.flatnonzero(~np.isfinite(sums)):
            head = (b[: sizes[i]] / b[: sizes[i]].max()) ** r
            out[i, : sizes[i]], sums[i] = head, head.sum()
        return out / sums[:, None], sizes

    return table


def riesz_matrix(
    weights: Sequence[float] | None = None, exponent: float | None = None
) -> SummabilityMatrix:
    """Rows a[n, k] = p_k / (p_0 + ... + p_n) for user weights p.

    Either an explicit list of finite weights or the power rule
    p_k = (k+1)**exponent with a finite exponent.
    """
    if (weights is None) == (exponent is None):
        raise MatrixError("riesz needs exactly one of weights= or exponent=")
    if exponent is not None:
        bases, r = None, float(exponent)
        if not math.isfinite(r):
            raise MatrixError(f"riesz exponent must be finite, got {r}")
        params = {"exponent": r}
    else:
        bases, r = np.asarray(list(weights), dtype=float), 1.0
        if bases.size == 0 or not np.all((0.0 <= bases) & (bases < math.inf)) or bases[0] <= 0.0:
            raise MatrixError("riesz weights must be finite and nonnegative with p_0 > 0")
        params = {"weights": [float(v) for v in bases]}

    def weights_fn(ns: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return _riesz_bases(bases, ns) ** r

    return SummabilityMatrix("riesz", _riesz_table(bases, r), params, weights_fn)


def _osc_gm2_weights(ns: np.ndarray) -> np.ndarray:
    """p_k = 1 but 0 at the dyadic indices k >= 1 with k+1 a power of two
    (1, 3, 7, 15, ...), for k up to the largest n.

    The sudden drops to zero break monotonicity (and the leading-entry
    variation bounds), while the averaged-neighbourhood bound absorbs them
    with a uniformly bounded constant at c = 2.
    """
    k = np.arange(ns.max(initial=0) + 1)
    return ((k == 0) | ((k & (k + 1)) != 0)).astype(float)


def osc_gm2_matrix(c: float = GM2_C) -> SummabilityMatrix:
    """Oscillating non-monotone family, in class gm2 exactly for finite
    c >= 2 (MatrixError for any other c).  Its rows do not depend on c, and
    a row's gm2 window [floor(m/c) v 1, floor(c m)] widens with c, so no
    constant exceeds its value at c = 2 (at most 4.33 on rows 1..2048); at
    c in (1, 2) the window [1, 1] of row 2, (1/2, 0, 1/2), holds only its
    zero a_1, so that row's constant is inf."""
    if not 2.0 <= c < math.inf:
        raise MatrixError(f"osc-gm2 is in class gm2 only for finite c >= 2, got {c}")
    return SummabilityMatrix("osc-gm2", params={"c": c}, weights_fn=_osc_gm2_weights)


def explicit_matrix(rows: Sequence[Sequence[float]]) -> SummabilityMatrix:
    """The stored rows; a table reads only the rows asked for, so a
    malformed row outside the sweep is never read."""
    stored = [np.asarray(r, dtype=float) for r in rows]
    if not stored:
        raise MatrixError("explicit matrix needs at least one row")

    def table(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        for n in ns.tolist():
            if n >= len(stored):
                raise MatrixError(f"explicit matrix has {len(stored)} rows, asked for {n}")
            if stored[n].ndim != 1 or stored[n].size == 0:
                raise MatrixError(f"row {n} must be a nonempty vector")
        return row_table([stored[n] for n in ns.tolist()])

    return SummabilityMatrix("explicit", table, {"rows": len(stored)})


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
