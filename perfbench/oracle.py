"""Vectorised reference values the benchmark checks apsum against.

Everything here is computed from the benchmark's own description of the
inputs (frequencies, cos/sin coefficients, row formulas), never from
apsum objects, so a wrong answer in apsum cannot also be the expected one.
"""

from __future__ import annotations

import math

import numpy as np

# Same relative slack apsum uses for "frequency <= cutoff".
FREQ_RTOL = 1e-12


def term_values(freqs, cos, sin, xs) -> np.ndarray:
    """Per-term contributions c cos(l x) + s sin(l x), shape (len(xs), terms)."""
    lx = np.outer(np.asarray(xs, dtype=float), np.asarray(freqs, dtype=float))
    return np.asarray(cos) * np.cos(lx) + np.asarray(sin) * np.sin(lx)


def cutoff_sums(freqs, cos, sin, xs, cutoffs) -> np.ndarray:
    """S_gamma f(x) for every x and cutoff, shape (len(xs), len(cutoffs))."""
    g = term_values(freqs, cos, sin, xs)
    prefix = np.concatenate([np.zeros((g.shape[0], 1)), np.cumsum(g, axis=1)], axis=1)
    cut = np.asarray(cutoffs, dtype=float)
    cut = cut + FREQ_RTOL * np.maximum(1.0, cut)
    return prefix[:, np.searchsorted(np.asarray(freqs, dtype=float), cut, side="right")]


def power_means(rows: np.ndarray, values: np.ndarray, q: float) -> np.ndarray:
    """Row-wise (sum_k a[n,k] v_k^q)^(1/q) with per-row max scaling.

    ``rows`` is dense (rows, K); ``values`` is (..., K).  Returns
    (..., rows).
    """
    v = np.abs(values)[..., None, :]
    live = rows > 0.0
    top = np.where(live, v, 0.0).max(axis=-1)
    safe = np.where(top > 0.0, top, 1.0)
    scaled = np.where(live, v / safe[..., None], 0.0)
    return np.where(top > 0.0, top * ((rows * scaled**q).sum(axis=-1)) ** (1.0 / q), 0.0)


def cesaro_row(n: int) -> np.ndarray:
    return np.full(n + 1, 1.0 / (n + 1))


def riesz_row(n: int, exponent: float) -> np.ndarray:
    p = (np.arange(n + 1) + 1.0) ** exponent
    return p / p.sum()


def osc_gm2_row(n: int) -> np.ndarray:
    """Flat on k <= n with zeros where k + 1 is a power of two (k >= 1)."""
    k = np.arange(n + 1)
    b = np.where((k >= 1) & (((k + 1) & k) == 0), 0.0, 1.0)
    return b / b.sum()


ROWS = {"cesaro": cesaro_row, "osc-gm2": osc_gm2_row}


def dense_rows(kind: str, ns) -> np.ndarray:
    """Rows n in ``ns`` of a built-in matrix, zero-padded to a common width."""
    ns = list(ns)
    out = np.zeros((len(ns), max(ns) + 1))
    for i, n in enumerate(ns):
        out[i, : n + 1] = ROWS[kind](n)
    return out


def _window_sums(d: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """sum(d[lo:hi]) for each (lo, hi).  The terms are nonnegative, so the
    summation order moves the result by a few ulps at most."""
    idx = np.arange(d.size)
    mask = (idx >= starts[:, None]) & (idx < stops[:, None])
    return np.where(mask, d, 0.0).sum(axis=1)


def class_constants(row, c: float) -> dict[str, float]:
    """ms, rbvs, gm and gm2 constants of one row (zero tail appended)."""
    a = np.concatenate([np.asarray(row, dtype=float), [0.0]])
    L = a.size
    out = {}

    step = a[1:] / np.where(a[:-1] > 0.0, a[:-1], 1.0)
    if np.all(a[:-1] >= a[1:]):
        out["ms"] = 1.0
    elif np.any((a[:-1] == 0.0) & (a[1:] > 0.0)):
        out["ms"] = math.inf
    else:
        out["ms"] = max(1.0, float(step[a[:-1] > 0.0].max()))

    diffs = np.abs(np.diff(a))
    rest = np.concatenate([np.cumsum(diffs[::-1])[::-1], [0.0]])
    if np.any((a == 0.0) & (rest > 0.0)):
        out["rbvs"] = math.inf
    else:
        pos = a > 0.0
        out["rbvs"] = float((rest[pos] / a[pos]).max())

    # block variation over k = m..2m-1 with the row extended by zeros
    m = np.arange(1, L + 1)
    ext = np.concatenate([a, np.zeros(L + 1)])
    var = _window_sums(np.abs(np.diff(ext)), m, 2 * m)
    live = var > 0.0

    am = np.where(m < L, a[np.minimum(m, L - 1)], 0.0)
    if np.any(live & (am == 0.0)):
        out["gm"] = math.inf
    else:
        out["gm"] = float((var[live] / am[live]).max()) if live.any() else 0.0

    lo = np.maximum(1, np.floor(m / c).astype(int))
    hi = np.minimum(np.floor(c * m).astype(int), L - 1)
    k = np.arange(L)
    mass = np.where(k >= 1, a / np.maximum(k, 1), 0.0)
    denom = _window_sums(mass, lo, hi + 1)
    if np.any(live & (denom == 0.0)):
        out["gm2"] = math.inf
    else:
        out["gm2"] = float((var[live] / denom[live]).max()) if live.any() else 0.0
    return out


def close(a: float, b: float, rel: float) -> bool:
    """|a - b| <= rel * max(|a|, |b|); infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))
