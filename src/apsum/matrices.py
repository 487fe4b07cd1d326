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
keeps the last one.  ``class_constants`` gives every row of a list its
constant from one such table.  Nonincreasing rows telescope: their MS and
RBVS constants are exactly 1 and their GM constant is at most 1.

The builtin families are Riesz-type, a[n, k] = p_k [k <= n] / P_n with
P_n = p_0 + ... + p_n: Cesaro has p = 1, osc-gm2 a 0/1 mask and riesz
p_k = b_k^r.  ``SummabilityMatrix.rows`` is the one reader of a sweep's
rows, and the one place that picks how to read them: from p and P for a
Riesz-type family (``_WeightRows``), else from the table (``_TableRows``),
as for explicit rows and for riesz rows whose sums overflow.  Both give
the strong means, the side condition's a[n, 0] and the class constants;
the weight rows build no table, as P_n cancels in every class ratio.

The weight rows' strong means: sum_k a[n, k] v_k^q is a prefix sum of
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
``power_mean``'s NaN mean at finite q (inf / inf is NaN).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spectra import _keys, _number, power_mean

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
    ``rows`` checks and keeps them, and with no ``table_fn`` the table is
    built from them."""

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
        self._last_weights: tuple = (0, None)  # (N + 1, (p, P) or None)

    def rows(self, n_values) -> _WeightRows | _TableRows:
        """The rows of ``n_values`` as every reader of a sweep takes them.
        A Riesz-type family gives its weights p_0..p_N, N the largest n,
        and their prefix sums P_0..P_N, checked once (N + 1 weights, p >= 0
        and p_0 > 0, else MatrixError) and kept until a longer or shorter p
        is asked for.  A matrix with no weight sequence, or one whose
        weights or sums overflow, gives its table (``table``)."""
        ns = _row_indices(n_values)
        size = int(ns.max(initial=0)) + 1
        if self._weights_fn is not None and self._last_weights[0] != size:
            p = self._weights_fn(ns)
            if np.shape(p) != (size,):
                raise MatrixError(f"{self.name} needs weights p_0..p_{size - 1}, got shape {np.shape(p)}")
            if not (p[0] > 0.0 and np.all(p >= 0.0)):
                raise MatrixError(f"{self.name} weights must be >= 0 with p_0 > 0")
            with np.errstate(over="ignore"):
                sums = np.cumsum(p)
            p.setflags(write=False)
            sums.setflags(write=False)
            self._last_weights = (size, (p, sums) if math.isfinite(sums[-1]) else None)
        weights = self._last_weights[1]
        return _TableRows(*self.table(ns)) if weights is None else _WeightRows(*weights, ns)

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


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den, 0 where num == 0 and inf where num != 0 == den or where the
    ratio is beyond the float range (a subnormal den)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(num != 0.0, num / den, 0.0)


def _sup_ratio(num: np.ndarray, den: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Per row, the sup of num/den over the entries with num != 0 (``floor``
    if it is larger), or inf where such an entry has den == 0."""
    return _ratios(num, den).max(axis=1, initial=floor)


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


# The most (row, m) pairs that one block of the weight route sums at once.
_PAIR_BUDGET = 1 << 18


def _suffix_rows(t: np.ndarray, last: np.ndarray, ns: np.ndarray, js: np.ndarray) -> np.ndarray:
    """S[i, a] = t[j] + ... + t[n_i - 1] + last[n_i] at j = js[a] <= n_i,
    else 0, for ascending ns and js with js[0] <= ns[0] = b.  A sum from
    j < b is the one-row sum t[j] + ... + t[b - 1] plus the row's own sum
    from b on: two sums of nonnegative terms, never a difference of prefix
    sums, which cancels where t decays."""
    b, top = int(ns[0]), int(ns[-1]) + 1
    x = np.where(np.arange(b, top) < ns[:, None], t[b:top], 0.0)
    x[np.arange(ns.size), ns - b] = last[ns]
    tail = np.cumsum(x[:, ::-1], axis=1)[:, ::-1]
    head = np.cumsum(t[js[0] : b][::-1])[::-1]
    k = int(np.searchsorted(js, b))
    out = np.empty((ns.size, js.size))
    np.add(head[js[:k] - js[0]], tail[:, :1], out=out[:, :k])
    out[:, k:] = tail[:, js[k:] - b]
    return out


def _weight_constants(class_name: str, p: np.ndarray, n_values, c: float) -> np.ndarray:
    """``class_constants`` of the rows a[n, k] = p_k [k <= n] / P_n of
    ``n_values``, from the weights p_0..p_N alone: each class ratio divides
    two sums over one row, so P_n cancels, and no row table is built.

    ms is a running max of p_{k+1} / p_k.  A gm or gm2 block [m, 2m) with
    2m <= n, whose gm2 mass window [floor(m/c) v 1, floor(c m)] ends by n,
    is inner: its ratio does not depend on n, so a row reads the running
    max of those ratios at its last inner m.  The other pairs (m, n), and
    every m of rbvs, read the row's end: the rest variation V(m, n) + p_n
    over the row and its trailing zero, and the clipped mass
    sum_{k=lo}^{n} p_k / k.  Monotone weights telescope, V(m, n) + p_n
    being 2 p_n - p_m (nondecreasing) or p_m (nonincreasing), so rbvs and
    gm take closed forms.  Otherwise each end pair's sums are taken in
    blocks of rows (``_suffix_rows``), but not for a row whose inner
    blocks already give inf, or, for rbvs, that holds a rise from a zero
    weight (p_{k-1} = 0 < p_k makes its constant inf).  A constant equals
    the table route's up to rounding; the infinities are the same."""
    ns, rows = np.unique(n_values, return_inverse=True)
    steps = np.diff(p)
    if class_name == "ms":
        return np.maximum.accumulate(np.append(1.0, _ratios(p[1:], p[:-1])))[ns][rows]
    N = p.size - 1
    m = np.arange(N + 1)
    d = np.append(np.abs(steps), 0.0)
    if class_name == "rbvs":
        rise = np.logical_or.accumulate(np.append(False, (p[:-1] == 0.0) & (p[1:] > 0.0)))
        out, first = np.where(rise[ns], math.inf, 0.0), np.zeros_like(ns)
    else:
        blocks = _window_sums(d[None], ((m >= 1) & (2 * m <= N))[None], m, 2 * m)[0]
        den, last_inner = p, ns // 2
        if class_name == "gm2":
            # c is clamped as in the table route, which moves no window top
            lo = np.maximum(1, np.floor(m / c)).astype(int)
            hi = np.floor(min(c, N + 2) * m).astype(int)
            q = np.divide(p, m, out=np.zeros_like(p), where=m > 0)
            den = _window_sums(q[None], ((m >= 1) & (hi <= N))[None], lo, hi + 1)[0]
            last_inner = np.minimum(last_inner, np.searchsorted(hi, ns, side="right") - 1)
        out = np.maximum.accumulate(_ratios(blocks, den))[last_inner]
        first = last_inner + 1
    if class_name != "gm2" and (np.all(steps >= 0.0) or np.all(steps <= 0.0)):
        at = p[np.minimum(first, ns)]
        with np.errstate(over="ignore"):
            end = 2.0 * (p[ns] / at) - 1.0 if np.all(steps >= 0.0) else (at > 0.0) * 1.0
        return np.maximum(out, np.where(first <= ns, end, 0.0))[rows]
    todo = np.flatnonzero(np.isfinite(out) & (first <= ns))
    while todo.size:
        # a block of h rows spans h x (its last n - its first m + 1) pairs:
        # h is sized by the first row's span, then by the span of the last
        # row of that guess, which is no shorter
        h = max(1, _PAIR_BUDGET // (ns[todo[0]] - first[todo[0]] + 1))
        h = max(1, _PAIR_BUDGET // (ns[todo[: h][-1]] - first[todo[0]] + 1))
        block, todo = todo[:h], todo[h:]
        n, f = ns[block], first[block]
        ms = np.arange(f[0], n[-1] + 1)
        num = _suffix_rows(d, p, n, ms)
        if class_name == "gm2":
            mass = _suffix_rows(q, q, n, lo[ms])
            # a block [m, 2m) within the row (c > 2), or a mass window
            # ending by n (c < 2), is whole
            if c > 2.0:
                num = np.where(2 * ms <= n[:, None], blocks[ms], num)
            elif c < 2.0:
                mass = np.where(hi[ms] <= n[:, None], den[ms], mass)
        else:
            mass = p[ms]
        k = f[-1] - f[0]  # pairs before a row's first end pair are inner
        num[:, :k][ms[:k] < f[:, None]] = 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # 0/0, a pair with no variation, is NaN, which fmax skips
            np.divide(num, mass, out=num)
        out[block] = np.fmax(out[block], np.fmax.reduce(num, axis=1))
    return out[rows]


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
    """Rows read from a dense weight table and its row sizes: ``width``
    columns, ``used`` marks the k some row weighs, ``means`` gives each
    row's ``power_mean`` of every lane of values (X, width) as (X, rows),
    ``firsts`` each a[n, 0] and ``constants`` the ``_table_constants``."""

    def __init__(self, table: np.ndarray, sizes: np.ndarray):
        self.table, self.sizes, self.width = table, sizes, table.shape[1]

    def used(self) -> np.ndarray:
        return np.any(self.table > 0.0, axis=0)

    def means(self, values: np.ndarray, q: float) -> np.ndarray:
        return power_mean(self.table, values[:, None, :], q)

    def firsts(self) -> np.ndarray:
        return self.table[:, 0]

    def constants(self, class_name: str, c: float) -> np.ndarray:
        return _table_constants(class_name, self.table, self.sizes, c)


class _WeightRows:
    """Rows a[n, k] = p_k [k <= n] / P_n of the n of a sweep, read as
    ``_TableRows`` are but from p and P: means with ``_prefix_means``,
    a[n, 0] as p_0 / P_n and constants with ``_weight_constants``."""

    def __init__(self, p: np.ndarray, sums: np.ndarray, ns: np.ndarray):
        self.p, self.sums, self.ns, self.width = p, sums, ns, p.size

    def used(self) -> np.ndarray:
        return self.p > 0.0

    def means(self, values: np.ndarray, q: float) -> np.ndarray:
        return _prefix_means(self.p, self.sums, self.ns, values, q)

    def firsts(self) -> np.ndarray:
        return self.p[0] / self.sums[self.ns]

    def constants(self, class_name: str, c: float) -> np.ndarray:
        return _weight_constants(class_name, self.p, self.ns, c)


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
    """Check that a[n, 0] is heading to zero across the sweep, read from
    the sweep's rows (``SummabilityMatrix.rows``).

    Verdict: every a[n, 0] over the last quarter of the sweep is <= tol.
    A finite sweep can only witness the trend, not the limit.
    """
    firsts = tuple(matrix.rows(n_values).firsts().tolist())
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
    and the sup-over-rows verdict; a bad class or c raises before any row
    is read.  The rows come from ``SummabilityMatrix.rows``: a Riesz-type
    matrix's constants from its weights alone (``_weight_constants``),
    equal to the table's up to rounding with the same infinities; explicit
    rows, and riesz rows whose sums overflow, from the matrix's one table
    of those rows."""
    _check_class(class_name, c)
    if math.isnan(threshold):
        raise MatrixError("threshold must be a number, got nan")
    n_values = tuple(int(n) for n in n_range)
    constants, side_ok = (), None
    if n_values:
        constants = tuple(matrix.rows(n_values).constants(class_name, c).tolist())
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
