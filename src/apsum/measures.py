"""Windowed norms, moduli of continuity, and majorant machinery.

The windowed p-norm of a bounded quasi-periodic function is

    N_p(f) = sup_u ( (1/pi) int_u^{u+pi} |f|^p )^{1/p}    (1 < p < inf)
    N_inf(f) = sup_u |f(u)|,

a sup over sampled u, so an approximation from below.  Every refined sup
here (N_p and the p = inf moduli) comes from one routine: the largest grid
sample, raised by a safeguarded Newton search on the derivative within a
grid step of it, which each means function gives with its values (a jet:
M, M', M'').  A step of width 2h around the sample is split into
S = min(8, ceil(8 h W / pi)) parts for the top frequency W of the means,
one search each.  Many sups (the shifts of a translate modulus, the
integrands of one pointwise delta) are lanes of one lockstep search in
which each lane takes its own steps and stops on its own, so each lane
returns what it would alone.  On top of N_p sits the translate modulus,
whose shifts share one window setup

    omega(delta) = sup_{|t| <= delta} N_p(f(.+t) - f),

the pointwise second-difference modulus

    m_x(delta) = ( (1/delta) int_0^delta |phi_x(t)|^p dt )^{1/p},
    phi_x(t) = f(x+t) + f(x-t) - 2 f(x),

and the windowed average

    Phi_x(delta, nu) = (1/delta) int_nu^{nu+delta} phi_x(u) du.

Majorants are modulus-of-continuity-type functions w (w(0)=0,
nondecreasing, subadditive) used to dominate the pointwise moduli.
``fit_class_majorant`` builds one as the concave upper envelope of sampled
m_x, estimates the smallest constants making

    ((1/delta) int_0^delta |phi_x(t) - phi_x(t +- gamma)|^p dt)^{1/p} <= C1 w(gamma)
    m_x(delta) <= C2 w(delta)

hold on a sample grid, and rescales w so that both are <= 1; then the
window average obeys |Phi_x(d1, d2)| <= w(d1) + w(d2) (``check_eq7``).
``moduli`` gives both lhs at every delta and shift of the grid in one call;
the fit takes every x of a run in one call, and at p = 2 builds the x-free
Grams of those lhs once for all of them.

At p = 2 every window mean above (the u-windows of N_2, m_x and the
shifted-difference means) is an exact quadratic form in the amplitudes,
built from the means of products of cos(l tau) and sin(l tau) over the
window (for N_2 of a spectrum whose pair lags collide in lattice units,
the same form as a trigonometric polynomial in u over the lags); only the
sup over u, over ``resolve_span``, stays a from-below sample.  Amplitudes
whose squares would underflow or overflow enter these forms scaled by a
power of two (exact), and the result is scaled back.  Other finite p use
composite Gauss-Legendre quadrature, and Phi_x has a closed form for any p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import QuasiPeriodicFunction, _difference_rows, _gl_panels, _keys, _number, _trig_sum, power_mean

__all__ = [
    "ModulusMajorant",
    "PowerModulus",
    "TableModulus",
    "majorant_from_dict",
    "majorant_to_dict",
    "WindowGrid",
    "SamplePlan",
    "resolve_span",
    "stepanov_norm",
    "modulus_omega",
    "moduli",
    "phi_average",
    "OmegaClassReport",
    "check_eq7",
    "fit_class_majorant",
]

EQ7_SLACK = 1e-9
# Canonical shift lattice for translate-modulus grids; sampling multiples of
# one global step (plus the endpoint) keeps the from-below sup exactly
# monotone across lattice-aligned deltas.
T_LATTICE = 2.0 * math.pi / 64.0


@dataclass(frozen=True)
class PowerModulus:
    """w(delta) = coef * min(delta, cap) ** exponent with 0 < exponent <= 1."""

    coef: float
    exponent: float = 1.0
    cap: float = math.inf

    def __post_init__(self):
        if not 0.0 <= self.coef < math.inf:
            raise ValueError(f"coef must be finite and >= 0, got {self.coef!r}")
        if not (0.0 < self.exponent <= 1.0):
            raise ValueError("exponent must lie in (0, 1]")
        if not self.cap > 0.0:
            raise ValueError("cap must be positive")

    def __call__(self, delta):
        d = np.minimum(np.asarray(delta, dtype=float), self.cap)
        out = self.coef * d**self.exponent
        return float(out) if out.ndim == 0 else out

    def scaled(self, factor: float) -> "PowerModulus":
        return PowerModulus(self.coef * factor, self.exponent, self.cap)


@dataclass(frozen=True)
class TableModulus:
    """Piecewise-linear majorant through (0,0); constant beyond the last knot.

    Construction verifies nondecreasing values and subadditivity on every
    knot pair.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ds = np.array([d for d, _ in self.knots], dtype=float)
        ws = np.array([w for _, w in self.knots], dtype=float)
        object.__setattr__(self, "_ds", ds)
        object.__setattr__(self, "_ws", ws)
        if not (np.all(np.isfinite(ds)) and np.all(np.isfinite(ws))):
            raise ValueError(f"knots must be finite, got {self.knots!r}")
        if not ds.size or ds[0] != 0.0 or ws[0] != 0.0:
            raise ValueError("knots must start at (0, 0)")
        if np.any(np.diff(ds) <= 0.0):
            raise ValueError("knot abscissae must increase strictly")
        if np.any(ws < 0.0) or np.any(np.diff(ws) < 0.0):
            raise ValueError("knot values must be nonnegative and nondecreasing")
        # every pair (d_i, d_j), j <= i, of positive knots; argwhere keeps the
        # row-major order, so the first offending pair is the first in i, j
        d = ds[1:]
        at = self._eval(d)
        over = self._eval(d[:, None] + d[None, :]) > at[:, None] + at[None, :] + 1e-12
        bad = np.argwhere(np.tril(over))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"not subadditive at knots ({d[i]:.6g}, {d[j]:.6g})")

    def _eval(self, delta):
        return np.interp(delta, self._ds, self._ws)

    def __call__(self, delta):
        out = self._eval(np.asarray(delta, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    def scaled(self, factor: float) -> "TableModulus":
        """The table times a finite ``factor`` >= 0 (else ValueError), which
        keeps it nondecreasing and subadditive: a copy with no second check."""
        if not 0.0 <= factor < math.inf:
            raise ValueError(f"factor must be finite and >= 0, got {factor!r}")
        out = object.__new__(TableModulus)
        object.__setattr__(out, "knots", tuple((d, w * factor) for d, w in self.knots))
        object.__setattr__(out, "_ds", self._ds)
        object.__setattr__(out, "_ws", self._ws * factor)
        return out


# A majorant: callable on delta >= 0, scalable by ``scaled``, serializable.
ModulusMajorant = PowerModulus | TableModulus


def majorant_from_dict(data: dict) -> ModulusMajorant:
    """The majorant of a JSON object: power (``C``, ``gamma``, ``cap``) or
    table (``knots``); TypeError for any other key or a non-number."""
    kind = data.get("type")
    if kind == "power":
        _keys(data, ("type", "C", "gamma", "cap"), "majorant")
        optional = {"gamma": "exponent", "cap": "cap"}  # absent: PowerModulus's default
        given = {optional[key]: _number(value) for key, value in data.items() if key in optional}
        return PowerModulus(_number(data["C"]), **given)
    if kind == "table":
        _keys(data, ("type", "knots"), "majorant")
        return TableModulus(tuple((_number(d), _number(w)) for d, w in data["knots"]))
    raise ValueError(f"unknown majorant type {kind!r}")


def majorant_to_dict(w: ModulusMajorant) -> dict:
    if isinstance(w, PowerModulus):
        out = {"type": "power", "C": w.coef, "gamma": w.exponent}
        if math.isfinite(w.cap):
            out["cap"] = w.cap
        return out
    if isinstance(w, TableModulus):
        return {"type": "table", "knots": [[d, v] for d, v in w.knots]}
    raise ValueError(f"unsupported majorant {type(w).__name__}")


# Panels of the Gauss-Legendre window rule at p other than 2 and inf.
WINDOW_PANELS = 16


@dataclass(frozen=True)
class WindowGrid:
    """Sampling plan for the windowed norms: ``u_samples`` (an integer
    >= 1; 64.0 is 64) window starts over ``u_span``, refined around the
    best when ``refine`` (a bool), each window ``window_length`` long; both
    lengths finite and > 0; TypeError for a non-number, else ValueError.

    ``u_span = None`` spans the period 2 pi / g of the spectrum's lattice
    (``Spectrum.lattice``), else 64 periods of the slowest positive
    frequency (a pragmatic almost-period), which also caps 2 pi / g.  Window
    means are exact at p = 2, on one of two routes chosen from the spectrum:
    with K distinct pair lags l_j + l_k and |l_j - l_k| among its N
    frequencies, in lattice units, a trigonometric polynomial in u over the
    lags when K <= 5N (dense lattices, K = 2N + 1 for l_j = j g, and every
    spectrum of at most four terms), else a quadratic form in the window
    Gram.  Other finite p use the fixed ``WINDOW_PANELS`` x 8-node rule.
    With ``refine`` the best start is raised by a Newton search on the
    means' u-derivative within one sample step (``_sampled_sup``).
    """

    u_samples: int = 512
    window_length: float = math.pi
    u_span: float | None = None
    refine: bool = True

    def __post_init__(self):
        n = _number(self.u_samples)
        if not (1.0 <= n < math.inf and n.is_integer()):
            raise ValueError(f"u_samples must be an integer >= 1, got {self.u_samples!r}")
        object.__setattr__(self, "u_samples", int(n))
        if not 0.0 < _number(self.window_length) < math.inf:
            raise ValueError(f"window_length must be finite and > 0, got {self.window_length!r}")
        if self.u_span is not None and not 0.0 < _number(self.u_span) < math.inf:
            raise ValueError(f"u_span must be null or finite and > 0, got {self.u_span!r}")
        if not isinstance(self.refine, bool):
            raise ValueError(f"refine must be true or false, got {self.refine!r}")


def resolve_span(f: QuasiPeriodicFunction, grid: WindowGrid) -> float:
    """``grid.u_span``, else pi without a positive frequency, else 2 pi / g of
    ``Spectrum.lattice`` capped at 64 periods of the slowest (the cap alone
    without a lattice)."""
    if grid.u_span is not None:
        return grid.u_span
    spec = f.spectrum
    pos = spec.freqs[spec.freqs > 0.0]
    if not pos.size:
        return math.pi
    cap = 64.0 * 2.0 * math.pi / float(pos.min())
    return min(2.0 * math.pi / spec.lattice[0], cap) if spec.lattice else cap


def _one_minus_sinc(z: np.ndarray) -> np.ndarray:
    """1 - sin(z)/z elementwise; its Taylor series below |z| = 1, where the
    direct form would cancel (the series is cut after z^18, below 1e-17
    relative there)."""
    out = np.empty_like(z)
    small = np.abs(z) < 1.0
    big = z[~small]
    out[~small] = 1.0 - np.sin(big) / big
    z2 = z[small] ** 2
    acc = np.ones_like(z2)
    for k in range(9, 1, -1):
        acc = 1.0 - z2 / (2 * k * (2 * k + 1)) * acc
    out[small] = z2 / 6.0 * acc
    return out


def _sin_mean(z: np.ndarray) -> np.ndarray:
    """(1 - cos z)/z = 2 sin^2(z/2)/z elementwise, 0 at z = 0."""
    h = np.sin(0.5 * z)
    safe = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 0.0, 2.0 * h * h / safe)


def _gram_args(lams: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """l_nu L and l_mu L, shaped (..., N, 1) and (..., 1, N) for each L."""
    scaled = np.multiply.outer(np.asarray(lengths, dtype=float), lams)
    return scaled[..., :, None], scaled[..., None, :]


def _trig_gram(lams: np.ndarray, lengths) -> np.ndarray:
    """Means (1/L) int_0^L b_i(tau) b_j(tau) dtau of the basis
    b = (cos(l_1 tau), ..., cos(l_N tau), sin(l_1 tau), ..., sin(l_N tau)),
    shape (..., 2N, 2N) with one leading entry per window length L."""
    a, b = _gram_args(lams, lengths)
    dm, dp = _one_minus_sinc(a - b), _one_minus_sinc(a + b)
    cc = 1.0 - 0.5 * (dm + dp)
    cs = 0.5 * (_sin_mean(a + b) + _sin_mean(b - a))
    ss = 0.5 * (dp - dm)
    top = np.concatenate([cc, cs], axis=-1)
    bottom = np.concatenate([np.swapaxes(cs, -1, -2), ss], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def _phi_gram(lams: np.ndarray, lengths) -> np.ndarray:
    """Means over [0, L] of (cos(l_nu t) - 1)(cos(l_mu t) - 1), the basis of
    phi_x, shape (..., N, N).  Written with 1 - sinc, not with the O(1)
    means of cos, so small arguments z = l L lose only about eps * z^2 in
    absolute terms against entries of size z^4 / 20."""
    a, b = _gram_args(lams, lengths)
    return (
        _one_minus_sinc(a)
        + _one_minus_sinc(b)
        - 0.5 * (_one_minus_sinc(a - b) + _one_minus_sinc(a + b))
    )


def _unit_exponents(rows: np.ndarray) -> np.ndarray:
    """Per row (leading index) of ``rows``: 0, or the binary exponent e of
    its largest |value| when that lies outside [2**-255, 2**255].  The
    p = 2 quadratic forms square their inputs; a row scaled by 2**-e (exact)
    has squares that neither underflow nor overflow, and a row that needs no
    scaling is left as it is."""
    top = np.max(np.abs(rows), axis=tuple(range(1, rows.ndim)), initial=0.0)
    e = np.frexp(top)[1]
    return np.where(np.abs(e) > 255, e, 0)


# |M'| at or below this share of W sum |A_w|, the largest slope of a mean M
# of top frequency W and coefficient mass sum |A_w|, is rounding, and so is
# M'' at or below this share of W^2 sum |A_w|: a lane there that is not at
# a minimum is flat or at its maximum, and stops.
_FLAT_SLOPE = 1e-13
# At most this many sub-brackets per lane: a wider bracket holds more than
# one top period 2 pi / W, on a grid too coarse for the lanes' top frequency
# (non-lattice many-term spectra on the default grid), and S sub-brackets
# cost S lanes of points per call (thm2 on 128 non-lattice terms, S = 384
# uncapped: 0.19-0.23 s at the former golden-section search, 0.23-0.25 s
# at 8 sub-brackets, 0.39 s at 16).
_MAX_SUBS = 8


def _sampled_sup(g, t, h, freq, mass, lo=-math.inf, hi=math.inf, xatol=1e-10, refine=True):
    """Sampled sup of each lane of g, shape (L,).  g maps points shaped
    (L, n), or (1, n) for points the lanes share, to values shaped (L, n);
    ``g(s, jet=True)`` gives the values, first and second derivatives at
    points s shaped (L, m), each (L, m).  ``freq`` is the top frequency W of
    the lanes and ``mass`` (L,) each lane's coefficient mass, which scale
    the slope at which a lane counts as flat (``_FLAT_SLOPE``).

    A lane's sup is the largest of its grid values g(t), raised by a
    safeguarded Newton search on g' within one grid step h of its argument,
    clipped to [lo, hi]; without ``refine`` the largest grid value alone.
    The bracket is split into S = ceil(8 h W / pi) sub-brackets, each at
    most an eighth of the top period 2 pi / W wide (S at most
    ``_MAX_SUBS``), and each is searched
    from its midpoint (from the grid argument when S = 1): a Newton step
    while g'' < 0 and the step stays inside the part of the sub-bracket
    left by the signs of g' seen so far, else a jump to the sub-bracket's
    end when g' has kept its sign towards it (the end is read), else a
    bisection.  A lane stops once its step falls below ``xatol``, or once
    g' is flat and it is not at a minimum; every lane takes its own steps,
    so it returns what its one-lane call does."""
    vals = g(t[None, :])
    best = np.argmax(vals, axis=-1)
    peak = np.take_along_axis(vals, best[:, None], axis=-1)[:, 0]
    if not refine:
        return peak
    start = t[best][:, None]
    a, b = np.maximum(lo, start - h), np.minimum(hi, start + h)
    subs = min(_MAX_SUBS, max(1, math.ceil(8.0 * h * freq / math.pi)))
    edges = np.concatenate([a + (b - a) * (np.arange(subs) / subs), b], axis=1)
    a0, b0 = edges[:, :-1], edges[:, 1:]
    x = start if subs == 1 else 0.5 * (a0 + b0)
    flat = _FLAT_SLOPE * freq * np.reshape(mass, (-1, 1))
    left, right = a0, b0
    open_lo = open_hi = np.ones(x.shape, dtype=bool)  # the end is not yet read
    live = np.ones(x.shape, dtype=bool)
    # bisection alone shrinks a sub-bracket to xatol in ``steps``; the Newton
    # steps and end reads get as many again
    steps = max(1, math.ceil(math.log2(2.0 * h / (subs * xatol))))
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on flat or empty lanes
        m, d1, d2 = g(x, jet=True)
        found = np.where(x == start, -math.inf, m)  # the grid argument's value is the peak
        for _ in range(2 * steps):
            live &= (np.abs(d1) > flat) | (d2 > freq * flat)
            up = d1 > 0.0  # the maximum lies to the right of x
            left, right = np.where(up, x, left), np.where(up, right, x)
            open_lo, open_hi = open_lo & ~up & (x != a0), open_hi & up & (x != b0)
            newton = x - d1 / d2
            inside = (d2 < 0.0) & (left < newton) & (newton < right)
            jump = ~inside & np.where(up, open_hi, open_lo)
            nx = np.where(inside, newton, np.where(jump, np.where(up, right, left), 0.5 * (left + right)))
            live &= jump | (np.abs(nx - x) >= xatol)
            if not live.any():
                break
            x = np.where(live, nx, x)
            m, d1, d2 = g(x, jet=True)
            found = np.where(live, np.maximum(found, m), found)
    top = found.max(axis=1)
    return np.where(top > peak, top, peak)


def _jet_rows(lams: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """The cos/sin rows (3, ..., N, 2) of f, f' and f'' for the rows
    ``coefs`` (..., N, 2) of f at the frequencies ``lams``: each term's
    (c, s), l (s, -c) and -l^2 (c, s), to sum with ``_trig_sum``."""
    c, s = coefs[..., 0], coefs[..., 1]
    return np.stack([coefs, lams[:, None] * np.stack([s, -c], axis=-1), -(lams**2)[:, None] * coefs])


# The p = 2 window means take the lag route when the N frequencies have at
# most this many distinct pair lags per frequency, else the Gram route.  On
# 33 translate-difference rows the lag route took 0.32-0.85 of the Gram
# route's time up to 5 lags per term, 0.72-0.97 between 5 and 6, and
# 0.78-26 beyond 6, above 1 on every non-lattice spectrum there
# (BENCH_window_lags.json "route_threshold").
_LAGS_PER_TERM = 5


def _gram_means(lams: np.ndarray, unit: np.ndarray, length: float):
    """The Gram route to the p = 2 window means of the unit-scaled rows
    ``unit`` (L, N, 2): the mean at u is k^T G k for the 2N cos/sin
    coefficients k(u) of the window and the window Gram G.  k is built as
    (L, 2N, n) with the n sample points u last and contiguous, and the
    means are ``((G @ k) * k).sum(axis=1)``; k' = l (k_sin, -k_cos) and
    k'' = -l^2 k give M' = 2 k'^T G k and M'' = 2 (k''^T G k + k'^T G k').
    Returns the means function of ``_sampled_sup``."""
    gram = _trig_gram(lams, length)
    cc, sc = unit[:, :, 0, None], unit[:, :, 1, None]
    both = np.concatenate([lams, lams])[:, None]

    def means(u, jet=False):
        lu = lams[:, None] * u[:, None, :]
        c, s = np.cos(lu), np.sin(lu)
        k = np.concatenate([cc * c + sc * s, sc * c - cc * s], axis=1)
        if not jet:
            return ((gram @ k) * k).sum(axis=1)  # numpy reuses the unnamed product
        gk = gram @ k
        dk = both * np.concatenate([k[:, lams.size :], -k[:, : lams.size]], axis=1)
        second = ((gram @ dk) * dk).sum(axis=1) - (both**2 * gk * k).sum(axis=1)
        return (gk * k).sum(axis=1), 2.0 * (gk * dk).sum(axis=1), 2.0 * second

    return means


def _pair_lags(lams: np.ndarray, lattice: tuple | None) -> tuple[np.ndarray, np.ndarray]:
    """The K distinct pair lags of the frequencies, sorted (K,), and the
    index into them of each of the 2P pair entries: the sums l_j + l_k, then
    the differences l_k - l_j, of the P pairs j <= k in ``np.triu_indices``
    order.  Both are formed and merged as the integers m_j +- m_k of the
    frequencies' ``lattice`` (g, m) (``_lattice``), each lag g (m_j +- m_k),
    l_j +- l_k to the bit on integer frequencies; without one, as exact
    floats."""
    step, units = lattice if lattice else (1.0, lams)
    j, k = np.triu_indices(lams.size)
    keys, at = np.unique(np.concatenate([units[j] + units[k], units[k] - units[j]]), return_inverse=True)
    return step * keys, at


def _lag_means(pairs: tuple[np.ndarray, np.ndarray], unit: np.ndarray, length: float):
    """The lag route to the p = 2 window means of the unit-scaled rows
    ``unit`` (L, N, 2), with the lags ``pairs`` of their frequencies and of
    their pair entries (``_pair_lags``).  With z = c - i s per term,
    f = Re sum z e^{i l x} and each lane's mean is a trigonometric polynomial in u,

        M(u) = (1/2) Re sum_w A_w e^{i w u},
        A_w = E(w) (sum of z_j z_k at sum lags w + sum of z_k conj(z_j)
              at difference lags w, pairs j < k counted twice),

    with the window mean E(w) = (1/L) int_0^L e^{i w tau} dtau.  The
    (L, 2K) lag table holds (a, b) = (Re A, -Im A) / 2, and the means at u
    are that row times the cos/sin basis of the lags at u, shaped (2K, n)
    with the points last; the basis is built once for points the lanes
    share.  The rows w (b, -a) and -w^2 (a, b) of the same table give M'
    and M'' on the same basis.  Returns the means function of
    ``_sampled_sup``."""
    lags, at = pairs
    lanes = len(unit)
    j, k = np.triu_indices(unit.shape[1])
    twice = np.where(j == k, 1.0, 2.0)
    cj, sj = twice * unit[:, j, 0], twice * unit[:, j, 1]
    cc, ss, cs, sc = cj * unit[:, k, 0], sj * unit[:, k, 1], cj * unit[:, k, 1], sj * unit[:, k, 0]
    # Re and Im of z_j z_k, then of z_k conj(z_j), in real arithmetic: numpy's
    # complex products may round an element by where it falls in the array,
    # so a lane would depend on the others
    re = np.concatenate([cc - ss, cc + ss], axis=1)
    im = np.concatenate([-(cs + sc), sc - cs], axis=1)
    # one bin per (lane, lag), each filled in entry order
    bins = (at + lags.size * np.arange(lanes)[:, None]).ravel()
    size = lanes * lags.size
    sr, si = (np.bincount(bins, part.ravel(), size).reshape(lanes, lags.size) for part in (re, im))
    wl = lags * length
    er, ei = 1.0 - _one_minus_sinc(wl), _sin_mean(wl)
    a, b = 0.5 * (sr * er - si * ei), -0.5 * (sr * ei + si * er)
    ab = np.concatenate([a, b], axis=1)
    rows = ab[:, None, :]
    jets = np.stack([ab, np.concatenate([lags * b, -lags * a], axis=1), -np.tile(lags**2, 2) * ab], axis=1)

    def means(u, jet=False):
        wu = lags[:, None] * u[:, None, :]
        basis = np.concatenate([np.cos(wu), np.sin(wu)], axis=1)
        if jet:
            return tuple(np.matmul(jets, basis).swapaxes(0, 1))
        return np.matmul(rows, basis)[:, 0, :]

    return means


def _lag_route(lams: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether the p = 2 window means of the frequencies ``lams``, with pair
    lags ``pairs`` (``_pair_lags``), take the lag route: at most
    ``_LAGS_PER_TERM`` distinct lags per frequency."""
    return pairs[0].size <= _LAGS_PER_TERM * lams.size


def _window_means(lams: np.ndarray, unit: np.ndarray, length: float, lattice: tuple | None):
    """The p = 2 window-mean function of the unit-scaled rows ``unit``
    (L, N, 2), with the ``lattice`` of the frequencies: the lag route when
    ``_lag_route`` holds (dense lattices, whose lags collide in lattice
    units, and every spectrum of a few terms), else the Gram route (spectra
    whose lags do not collide)."""
    pairs = _pair_lags(lams, lattice)
    if _lag_route(lams, pairs):
        return _lag_means(pairs, unit, length)
    return _gram_means(lams, unit, length)


def _power_jet(wts: np.ndarray, fs: np.ndarray, p: float) -> tuple:
    """The window mean M = (sum w |f|^p)^(1/p) over the last axis of
    f = fs[0] (``power_mean``), and M' and M'' from f' = fs[1] and
    f'' = fs[2]: with v = |f| / max |f|, S0 = sum w v^p,
    S1 = sum w v^(p-1) sgn(f) f' and
    S2 = sum w ((p - 1) v^(p-2) f'^2 / max |f| + v^(p-1) sgn(f) f''),
    M' = S0^(1/p - 1) S1 and M'' = S0^(1/p - 1) (S2 - (p - 1) S1^2 / (S0 max |f|))."""
    f, d1, d2 = fs
    top = np.max(np.abs(f), axis=-1, keepdims=True)
    v, sign = np.abs(f) / top, np.sign(f)
    vp = v ** (p - 1.0)
    s0, s1 = (wts * vp * v).sum(axis=-1), (wts * vp * sign * d1).sum(axis=-1)
    s2 = (wts * ((p - 1.0) * v ** (p - 2.0) * d1**2 / top + vp * sign * d2)).sum(axis=-1)
    k = s0 ** (1.0 / p - 1.0)
    return power_mean(wts, f, p), k * s1, k * (s2 - (p - 1.0) * s1**2 / (s0 * top[..., 0]))


def _window_norm(
    lams: np.ndarray, coefs: np.ndarray, p: float, grid: WindowGrid, span: float, lattice: tuple | None
) -> np.ndarray:
    """Windowed p-norms, shape (L,), of the L functions with frequencies
    ``lams``, their ``lattice`` (``Spectrum.lattice``, read at p = 2) and
    cos/sin coefficient rows ``coefs`` shaped (L, N, 2).

    One window setup serves every row: the u grid over ``span`` plus the
    p = 2 window means (``_window_means``), the Gauss-Legendre window rule
    (other finite p) or nothing more than a dense u grid (p = inf).  At
    p = 2 the means take one of two exact routes: with K distinct pair
    lags l_j + l_k and |l_j - l_k|, the lag route when K <= 5N (one (L, 2K)
    lag table and one cos/sin basis of the lags per point set), else the
    Gram route (k^T G k for the (L, 2N, n) window coefficients k).  The rows
    are the lanes of one sampled-sup search, each returning what its
    one-lane call does; at finite p other than 2 each lane is evaluated on
    its own, which keeps the node arrays one lane in size, and the search
    runs on its rooted ``power_mean`` window means."""
    if not p > 1.0:
        raise ValueError(f"p must be > 1 (or inf), got {p}")
    inf = math.isinf(p)
    if p == 2.0:
        scale = _unit_exponents(coefs)
        unit = np.ldexp(coefs, -scale[:, None, None])
        means = _window_means(lams, unit, grid.window_length, lattice)
        mass = np.hypot(unit[..., 0], unit[..., 1]).sum(axis=-1) ** 2
    else:
        mass = np.hypot(coefs[..., 0], coefs[..., 1]).sum(axis=-1)
        rows = _jet_rows(lams, coefs)

    if inf:

        def means(u, jet=False):
            if not jet:
                return np.abs(_trig_sum(lams, coefs[:, None], u))
            f, d1, d2 = _trig_sum(lams, rows[:, :, None], u)
            sign = np.sign(f)
            return np.abs(f), sign * d1, sign * d2

    elif p != 2.0:
        offs, wts = _gl_panels(0.0, grid.window_length, WINDOW_PANELS)
        wts = wts / grid.window_length

        def means(u, jet=False):
            u = np.broadcast_to(u, (len(coefs),) + u.shape[1:])
            if not jet:
                return np.array([
                    power_mean(wts, _trig_sum(lams, c, np.add.outer(v, offs)), p)
                    for c, v in zip(coefs, u)
                ]).reshape(u.shape)
            out = np.array([
                _power_jet(wts, _trig_sum(lams, r[:, None, None], np.add.outer(v, offs)), p)
                for r, v in zip(rows.swapaxes(0, 1), u)
            ])
            return tuple(out.reshape((len(coefs), 3) + u.shape[1:]).swapaxes(0, 1))

    n = max(8 * grid.u_samples, 2048) if inf else grid.u_samples
    u = np.linspace(0.0, span, n, endpoint=False)
    # |f|^p, |f|^2 and |f| oscillate at up to twice the top frequency of f
    freq = 2.0 * float(lams.max(initial=0.0))
    top = _sampled_sup(means, u, span / n, freq, mass, xatol=1e-10 if inf else 1e-9, refine=grid.refine)
    if p != 2.0:
        return top
    return np.ldexp(np.maximum(top, 0.0) ** 0.5, scale)


def stepanov_norm(f: QuasiPeriodicFunction, p: float, grid: WindowGrid | None = None) -> float:
    """Windowed p-norm, a from-below approximation (sup over sampled u).

    Rejects p <= 1; p = inf takes the grid sup of |f| instead of window
    integrals.  At p = 2 each window mean is exact: writing
    f(u + tau) = sum_nu C_nu(u) cos(l_nu tau) + S_nu(u) sin(l_nu tau), it is
    a quadratic form of (C, S) in the window Gram matrix (the Gram route),
    or, summed over the K distinct pair lags w of the N frequencies, a
    trigonometric polynomial sum_w a_w cos(w u) + b_w sin(w u) (the lag
    route, taken when K <= 5N).  Other p use ``WINDOW_PANELS``
    Gauss-Legendre panels of ``GL_NODES`` nodes.  With ``grid.refine`` a
    safeguarded Newton search on the window mean's u-derivative, which each
    route gives in closed form, sharpens the best sample.
    """
    grid = grid or WindowGrid()
    spec = f.spectrum
    return float(_window_norm(spec.freqs, spec.coefs[None], p, grid, resolve_span(f, grid), spec.lattice)[0])


def modulus_omega(f: QuasiPeriodicFunction, delta, p: float, grid: WindowGrid | None = None):
    """Translate modulus sup_{|t| <= delta} N_p(f(.+t) - f), from below; a
    float for scalar ``delta``, else an array of its shape.  The shifts are
    the canonical lattice plus the endpoint, each normed once in one
    window-norm call (every difference has the nonzero frequencies of f).
    A delta reads the running max of the lattice below it.  The two shift
    signs give equal norms, so only t > 0 is scanned.
    """
    deltas = np.asarray(delta, dtype=float)
    flat = deltas.ravel()
    if not np.all((flat >= 0.0) & (flat < math.inf)):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    grid = grid or WindowGrid()
    steps = (flat / T_LATTICE).astype(int)
    top = int(steps.max(initial=0))
    off = (flat > 0.0) & (steps * T_LATTICE < flat)
    ends, which = np.unique(flat[off], return_inverse=True)
    shifts = np.array([i * T_LATTICE for i in range(1, top + 1)] + ends.tolist())
    lams, coefs = _difference_rows(f.spectrum, shifts)
    lattice = f.spectrum.lattice
    if lattice:  # that of the nonzero frequencies
        lattice = (lattice[0], lattice[1][lattice[1] != 0])
    vals = _window_norm(lams, coefs, p, grid, resolve_span(f, grid), lattice)
    out = np.maximum.accumulate(np.concatenate([[0.0], vals[:top]]))[steps]
    out[off] = np.maximum(out[off], vals[top:][which])
    return float(out[0]) if deltas.ndim == 0 else out.reshape(deltas.shape)


def _phi_panels(f: QuasiPeriodicFunction, delta: float) -> int:
    """Panels over [0, delta]: 8 a period of the top frequency, at least 64."""
    top = f.spectrum.max_frequency()
    need = 8 if top == 0.0 else int(math.ceil(delta * top / (2.0 * math.pi) * 8))
    return max(64, need)


def _check_moduli_args(deltas, shifts, p: float) -> tuple[np.ndarray, np.ndarray]:
    """deltas and shifts as arrays, else ValueError naming the argument (or p)."""
    deltas = np.asarray(deltas, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    if deltas.ndim != 1 or not np.all((deltas > 0.0) & (deltas < math.inf)):
        raise ValueError(f"deltas must be a 1-D list of finite numbers > 0, got {deltas!r}")
    if shifts.ndim != 1 or not np.all(np.isfinite(shifts)):
        raise ValueError(f"shifts must be a 1-D list of finite numbers, got {shifts!r}")
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1 (or inf), got {p}")
    return deltas, shifts


def _amplitudes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = 2 g(x) of the term values g(x), scaled by a power of two 2**-e
    where its squares would underflow or overflow, and e."""
    amps = 2.0 * values
    scale = _unit_exponents(amps[None])
    return np.ldexp(amps, -scale), scale


def _point_moduli(amps: np.ndarray, scale: np.ndarray, phi_gram: np.ndarray) -> np.ndarray:
    """m_x at each delta of ``phi_gram``, shape (D,): the quadratic forms
    a^T G a of the scaled amplitudes (``_amplitudes``), scaled back."""
    return np.ldexp(np.sqrt(np.maximum(((amps @ phi_gram) * amps).sum(axis=-1), 0.0)), scale)


def _shift_factors(lams: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x-free factors 2 sin^2(l s / 2) and sin(l s) of each shift s,
    each shaped (M, N)."""
    ls = np.multiply.outer(shifts, lams)
    h = np.sin(0.5 * ls)
    return 2.0 * h * h, np.sin(ls)


def _shifted_means(amps: np.ndarray, scale: np.ndarray, factors, trig_gram: np.ndarray) -> np.ndarray:
    """The shifted-difference means at each delta of ``trig_gram`` and each
    shift of ``factors`` (``_shift_factors``), shape (D, M): k^T G k for the
    cos/sin coefficient row k of each shift, each row scaled by a power of
    two where its squares would underflow or overflow."""
    cos_part, sin_part = factors
    k = np.concatenate([cos_part * amps, sin_part * amps], axis=-1)
    k_scale = _unit_exponents(k)
    k = np.ldexp(k, -k_scale[:, None])
    shifted = ((k @ trig_gram) * k).sum(axis=-1)
    return np.ldexp(np.sqrt(np.maximum(shifted, 0.0)), scale + k_scale)


def moduli(f: QuasiPeriodicFunction, x: float, deltas, shifts, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise moduli m_x(delta), shape (D,), and shifted-difference means

        ((1/delta) int_0^delta |phi_x(t) - phi_x(t + s)|^p dt)^(1/p)

    for every finite shift s, shape (D, M), at each finite delta > 0 (both
    1-D lists, else ValueError), for p >= 1; at p = inf both are sups over
    [0, delta].  A minus shift is s < 0, folded back by the evenness of
    phi_x.

    At p = 2 both are exact quadratic forms in a = 2 g(x), g = term values:
    phi_x(t) = sum_nu a_nu (cos(l_nu t) - 1) and
    phi_x(t) - phi_x(t + s) = sum_nu a_nu [(1 - cos(l_nu s)) cos(l_nu t)
    + sin(l_nu s) sin(l_nu t)], with one Gram matrix per delta and one
    matrix product over all shifts (the private helpers the majorant fit
    shares).  At finite p each of the 1 + M integrands of a delta is a
    ``power_mean`` over the quadrature nodes (scaled by its max, so a large
    p does not overflow); at p = inf all of them are the lanes of one
    refined grid sup over [0, delta].
    """
    deltas, shifts = _check_moduli_args(deltas, shifts, p)
    if p == 2.0:
        lams = f.spectrum.freqs
        amps, scale = _amplitudes(f.term_values(x))
        point = _point_moduli(amps, scale, _phi_gram(lams, deltas))
        if not shifts.size:  # no shifted means, so no trig Gram
            return point, np.zeros((deltas.size, 0))
        factors = _shift_factors(lams, shifts)
        return point, _shifted_means(amps, scale, factors, _trig_gram(lams, deltas))
    # lane 0 is |phi_x(t)|, lane 1 + m is |phi_x(t) - phi_x(t + s_m)|, with
    # phi_x(t) = sum 2 g(x) (cos(l t) - 1): the rows (2 g, 0) give its
    # derivatives
    lams, twice = f.spectrum.freqs, 2.0 * f.term_values(x)
    rows = _jet_rows(lams, np.stack([twice, np.zeros_like(twice)], axis=-1))[1:, None, None]
    # |phi_x| oscillates at up to twice the top frequency, and each lane's
    # coefficient mass is at most twice sum 2 |g(x)|
    freq, mass = 2.0 * float(lams.max(initial=0.0)), 2.0 * float(np.abs(twice).sum())

    def lanes(t, jet=False):
        t = np.broadcast_to(t, (1 + shifts.size, t.shape[1]))
        vals = f.second_difference(x, t)
        vals[1:] -= f.second_difference(x, t[1:] + shifts[:, None])
        if not jet:
            return np.abs(vals)
        d = _trig_sum(lams, rows, t)
        d[:, 1:] -= _trig_sum(lams, rows, t[1:] + shifts[:, None])
        sign = np.sign(vals)
        return np.abs(vals), sign * d[0], sign * d[1]

    point = np.empty(deltas.size)
    shifted = np.empty((deltas.size, shifts.size))
    for j, d in enumerate(deltas.tolist()):
        if math.isinf(p):
            ts = np.linspace(0.0, d, 512)
            means = _sampled_sup(lanes, ts, d / 511, freq, mass, 0.0, d)
        else:
            # phi_x once, then one lane at a time, so that no (1 + M, nodes)
            # table and its temporaries are held at once
            t, w = _gl_panels(0.0, d, _phi_panels(f, d))
            phi = f.second_difference(x, t)
            lane_means = (power_mean(w / d, phi - f.second_difference(x, t + s), p) for s in shifts)
            means = [power_mean(w / d, phi, p), *lane_means]
        point[j], shifted[j] = means[0], means[1:]
    return point, shifted


def phi_average(f: QuasiPeriodicFunction, x: float, delta: float, nu: float) -> float:
    """(1/delta) int_nu^{nu+delta} phi_x(u) du in closed form,

        sum_nu 2 g_nu(x) [cos(l_nu (nu + delta/2)) sinc(l_nu delta/2) - 1],

    with each bracket written as -2 sin^2(A/2) sinc(h) - (1 - sinc(h)) so
    that small arguments do not cancel."""
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if nu < 0.0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    lams = f.spectrum.freqs
    s = np.sin(0.5 * lams * (nu + 0.5 * delta))
    d = _one_minus_sinc(0.5 * delta * lams)
    return float(np.dot(2.0 * f.term_values(x), -2.0 * s * s * (1.0 - d) - d))


# The default sample plan: ``PLAN_COUNT`` equal steps up to ``PLAN_TOP``.
PLAN_TOP = 2.0 * math.pi
PLAN_COUNT = 20


@dataclass(frozen=True)
class SamplePlan:
    """Samples for the class-constant estimation: each point serves as a
    shift +-gamma and as a width delta.  The p = 2 moduli are closed forms;
    other finite p integrate over [0, delta] on panels sized to the fastest
    spectral oscillation."""

    points: tuple[float, ...]

    @classmethod
    def default(cls, top: float = PLAN_TOP, count: int = PLAN_COUNT) -> "SamplePlan":
        return cls(tuple(top * i / count for i in range(1, count + 1)))


# The widths at which the fit samples the pointwise modulus for its envelope.
FIT_DELTAS = SamplePlan.default(count=40).points


@dataclass(frozen=True)
class OmegaClassReport:
    """Class constants C1 and C2 of a majorant."""

    c1: float
    c2: float

    @property
    def constant(self) -> float:
        return max(self.c1, self.c2)


def _class_shifts(plan: SamplePlan) -> list[float]:
    """The shifts of the class table: +gamma and -gamma for each point gamma."""
    return [s * g for g in plan.points for s in (1.0, -1.0)]


def _worst(lhs: np.ndarray, wv: np.ndarray) -> float:
    """Largest lhs / w over the samples with lhs > 1e-14 (inf where w does
    not exceed 0); 0 when no sample counts."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lhs > 1e-14, np.where(wv > 0.0, lhs / wv, math.inf), 0.0)
    top = float(ratio.max(initial=0.0))
    return top if top > 0.0 else 0.0


def _class_report(
    point: np.ndarray, shifted: np.ndarray, plan: SamplePlan, w: ModulusMajorant
) -> OmegaClassReport:
    """C1 and C2 of w: the largest lhs / w of each table on the plan's
    points, from the ``moduli`` of the plan's points as deltas and of
    ``_class_shifts`` (shaped (deltas, gammas x signs)); C1 divides by w at
    the shift gamma, C2 by w at delta."""
    wv = w(np.array(plan.points))  # one majorant call on every point
    gammas = shifted.reshape(len(wv), len(wv), 2)
    return OmegaClassReport(_worst(gammas, wv[:, None]), _worst(point, wv))


def check_eq7(
    f: QuasiPeriodicFunction,
    x: float,
    w: ModulusMajorant,
    delta1: float,
    delta2: float,
) -> bool:
    """|Phi_x(delta1, delta2)| <= w(delta1) + w(delta2), with float slack.

    Meaningful when w is the majorant ``fit_class_majorant`` returns for
    (f, x), whose class constants are <= 1.
    """
    return abs(phi_average(f, x, delta1, delta2)) <= float(w(delta1)) + float(
        w(delta2)
    ) + EQ7_SLACK


def _concave_envelope(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Upper concave hull through (0, 0), trimmed to its nondecreasing part."""
    pts = sorted(points)
    hull: list[tuple[float, float]] = []
    for q in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (q[1] - y1) >= (q[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(q)
    peak = max(range(len(hull)), key=lambda i: hull[i][1])
    return hull[: peak + 1]


def _fit_envelope(point: np.ndarray) -> TableModulus:
    """Concave nondecreasing table majorant dominating the pointwise moduli
    ``point`` sampled at ``FIT_DELTAS``; constant beyond the peak."""
    samples = [(0.0, 0.0)] + list(zip(FIT_DELTAS, point.tolist()))
    return TableModulus(tuple(_concave_envelope(samples)))


def _rescaled(fit_point: np.ndarray, lhs, plan: SamplePlan) -> tuple[ModulusMajorant, OmegaClassReport]:
    """The envelope of the pointwise moduli ``fit_point`` at ``FIT_DELTAS``,
    scaled so that the class constants of the class table ``lhs`` (point,
    shifted) drop to <= 1, and its report; both reports divide the one
    table."""
    base = _fit_envelope(fit_point)
    rep = _class_report(*lhs, plan, base)
    scale = max(rep.constant, 1.0) * (1.0 + 1e-9)
    if not math.isfinite(scale):
        raise ValueError(
            "fitted majorant vanishes where the moduli do not; cannot rescale"
        )
    w = base.scaled(scale)
    return w, _class_report(*lhs, plan, w)


def fit_class_majorant(
    f: QuasiPeriodicFunction,
    xs,
    p: float,
    plan: SamplePlan | None = None,
) -> list[tuple[ModulusMajorant, OmegaClassReport]]:
    """Fit a majorant at each x of ``xs`` and rescale it so the class
    constants drop to <= 1.

    Returns one (rescaled majorant, post-rescale report) pair per x.  Each
    x's class table is computed once; both its reports divide it by a
    majorant.  At p = 2 the moduli are quadratic forms in 2 g(x) whose
    Grams depend on the frequencies and the widths only, so one call builds
    them once for every x: one phi Gram over ``FIT_DELTAS`` and the plan's
    points, one trig Gram over the plan's points, and the shift factors.
    Other p take each x's moduli on their own.
    """
    plan = plan or SamplePlan.default()
    shifts = _class_shifts(plan)
    if p != 2.0:
        return [
            _rescaled(moduli(f, x, FIT_DELTAS, (), p)[0], moduli(f, x, plan.points, shifts, p), plan)
            for x in xs
        ]
    widths, shifts = _check_moduli_args(plan.points, shifts, p)
    lams = f.spectrum.freqs
    deltas, at = np.unique(np.concatenate([FIT_DELTAS, widths]), return_inverse=True)
    amps = [_amplitudes(f.term_values(x)) for x in xs]
    phi_gram = _phi_gram(lams, deltas)
    pointwise = [_point_moduli(a, scale, phi_gram) for a, scale in amps]
    del phi_gram  # not held while the larger trig Gram is built
    factors, trig_gram = _shift_factors(lams, shifts), _trig_gram(lams, widths)
    fit_at, plan_at = at[: len(FIT_DELTAS)], at[len(FIT_DELTAS) :]
    return [
        _rescaled(m[fit_at], (m[plan_at], _shifted_means(a, scale, factors, trig_gram)), plan)
        for m, (a, scale) in zip(pointwise, amps)
    ]
