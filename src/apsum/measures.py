"""Windowed norms, moduli of continuity, and majorant machinery.

The windowed p-norm of a bounded quasi-periodic function is

    N_p(f) = sup_u ( (1/pi) int_u^{u+pi} |f|^p )^{1/p}    (1 < p < inf)
    N_inf(f) = sup_u |f(u)|,

a sup over sampled u, so an approximation from below.  Every refined sup
here (N_p and the p = inf moduli) comes from one routine: the largest grid
sample, raised by a golden-section search within a grid step of it.  Many
sups (the shifts of a translate modulus, the integrands of one pointwise
delta) are lanes of one lockstep search with one step count, so each lane
returns what it would alone.  On top of N_p sits the translate modulus,
whose shifts share one window setup

    omega(delta) = sup_{|t| <= delta} N_p(f(.+t) - f),

the pointwise second-difference modulus

    m_x(delta) = ( (1/delta) int_0^delta |phi_x(t)|^p dt )^{1/p},
    phi_x(t) = f(x+t) + f(x-t) - 2 f(x),

the windowed average

    Phi_x(delta, nu) = (1/delta) int_nu^{nu+delta} phi_x(u) du,

and the spectral-tail surrogate for the best band-limited approximation
error (sum of amplitude mass above the cutoff; an upper bound, exact zero
once the cutoff clears the spectrum).

Majorants are modulus-of-continuity-type functions w (w(0)=0,
nondecreasing, subadditive) used to dominate the pointwise moduli;
``fit_majorant`` builds one as the concave upper envelope of sampled
values, and ``omega_class_check`` estimates the smallest constants making

    ((1/delta) int_0^delta |phi_x(t) - phi_x(t +- gamma)|^p dt)^{1/p} <= C1 w(gamma)
    m_x(delta) <= C2 w(delta)

hold on a sample grid; ``moduli`` gives both lhs at every delta and
shift of the grid in one call.  With both constants scaled to <= 1, the
window average obeys |Phi_x(d1, d2)| <= w(d1) + w(d2) (``check_eq7``).

At p = 2 every window mean above (the u-windows of N_2, m_x and the
shifted-difference means) is an exact quadratic form in the amplitudes,
built from the means of products of cos(l tau) and sin(l tau) over the
window; only the sup over u stays a from-below sample.  Amplitudes whose
squares would underflow or overflow enter these forms scaled by a power
of two (exact), and the result is scaled back.  Other finite p
use composite Gauss-Legendre quadrature, and Phi_x has a closed form for
any p.
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
    "best_approx_tail",
    "OmegaClassReport",
    "omega_class_check",
    "check_eq7",
    "fit_majorant",
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
        return TableModulus(tuple((d, w * factor) for d, w in self.knots))


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

    ``u_span = None`` spans one common period of the spectrum when the
    frequencies lock onto a rational grid, else 64 periods of the slowest
    positive frequency (a pragmatic almost-period).  Window means are exact
    at p = 2; other finite p use the fixed ``WINDOW_PANELS`` x 8-node rule.
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


def _float_gcd(a: float, b: float, tol: float) -> float:
    while b > tol:
        a, b = b, math.fmod(a, b)
    return a


def resolve_span(f: QuasiPeriodicFunction, grid: WindowGrid) -> float:
    if grid.u_span is not None:
        return grid.u_span
    pos = [lam for lam in f.spectrum.freqs.tolist() if lam > 0.0]
    if not pos:
        return math.pi
    cap = 64.0 * 2.0 * math.pi / min(pos)
    tol = 1e-9 * max(pos)
    g = pos[0]
    for lam in pos[1:]:
        g = _float_gcd(g, lam, tol)
        if g <= tol:
            return cap
    return min(2.0 * math.pi / g, cap)


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


# 1/phi = (sqrt 5 - 1)/2: the share of its bracket a golden-section step keeps.
_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


def _golden_max(func, a, b, steps):
    """Largest value found by ``steps`` golden-section steps on each lane
    bracket [a, b], shaped (L,), run in lockstep.  func maps points shaped
    (L,), one per lane, to values shaped (L,).  Every lane takes the same
    steps within its own bracket, so it returns what its one-lane call does."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = func(c), func(d)
    for _ in range(steps):
        left = fc >= fd  # a maximum lies in [a, d], else in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, fkept = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fx = func(x)
        c, fc = np.where(left, x, kept), np.where(left, fx, fkept)
        d, fd = np.where(left, kept, x), np.where(left, fkept, fx)
    return np.maximum(fc, fd)


def _sampled_sup(g, t, h, lo=-math.inf, hi=math.inf, xatol=1e-10, refine=True):
    """Sampled sup of each lane of g, shape (L,).  g maps points shaped
    (L, n), or (1, n) for points the lanes share, to values shaped (L, n).
    A lane's sup is the largest of its grid values g(t), raised by a
    golden-section search within one grid step h of its argument, clipped
    to [lo, hi]; without ``refine`` the largest grid value alone.  The step
    count shrinks a bracket of width 2h to ``xatol``; a clipped bracket is
    only narrower."""
    vals = g(t[None, :])
    best = np.argmax(vals, axis=-1)
    peak = np.take_along_axis(vals, best[:, None], axis=-1)[:, 0]
    if not refine:
        return peak
    steps = max(0, math.ceil(math.log(xatol / (2.0 * h)) / math.log(_INV_PHI)))
    top = _golden_max(
        lambda s: g(s[:, None])[:, 0],
        np.maximum(lo, t[best] - h),
        np.minimum(hi, t[best] + h),
        steps,
    )
    return np.where(top > peak, top, peak)


def _window_norm(
    lams: np.ndarray, coefs: np.ndarray, p: float, grid: WindowGrid, span: float
) -> np.ndarray:
    """Windowed p-norms, shape (L,), of the L functions with frequencies
    ``lams`` and cos/sin coefficient rows ``coefs`` shaped (L, N, 2).

    One window setup serves every row: the u grid over ``span`` plus the
    window Gram (p = 2), the Gauss-Legendre window rule (other finite p)
    or nothing more than a dense u grid (p = inf).  The rows are the lanes
    of one sampled-sup search; at finite p other than 2 each lane is
    evaluated on its own, which keeps the node arrays one lane in size, and
    the search runs on its rooted ``power_mean`` window means."""
    if not p > 1.0:
        raise ValueError(f"p must be > 1 (or inf), got {p}")
    inf = math.isinf(p)
    if p == 2.0:
        gram = _trig_gram(lams, grid.window_length)
        scale = _unit_exponents(coefs)
        coefs = np.ldexp(coefs, -scale[:, None, None])

        def means(u):
            lu = np.multiply.outer(u, lams)
            c, s = np.cos(lu), np.sin(lu)
            cc, sc = coefs[:, None, :, 0], coefs[:, None, :, 1]
            k = np.concatenate([cc * c + sc * s, sc * c - cc * s], axis=-1)
            return ((k @ gram) * k).sum(axis=-1)

    elif inf:

        def means(u):
            return np.abs(_trig_sum(lams, coefs[:, None], u))

    else:
        offs, wts = _gl_panels(0.0, grid.window_length, WINDOW_PANELS)
        wts = wts / grid.window_length

        def means(u):
            u = np.broadcast_to(u, (len(coefs),) + u.shape[1:])
            return np.array([
                power_mean(wts, _trig_sum(lams, c, np.add.outer(v, offs)), p)
                for c, v in zip(coefs, u)
            ]).reshape(u.shape)

    n = max(8 * grid.u_samples, 2048) if inf else grid.u_samples
    u = np.linspace(0.0, span, n, endpoint=False)
    top = _sampled_sup(means, u, span / n, xatol=1e-10 if inf else 1e-9, refine=grid.refine)
    if p != 2.0:
        return top
    return np.ldexp(np.maximum(top, 0.0) ** 0.5, scale)


def stepanov_norm(f: QuasiPeriodicFunction, p: float, grid: WindowGrid | None = None) -> float:
    """Windowed p-norm, a from-below approximation (sup over sampled u).

    Rejects p <= 1; p = inf takes the grid sup of |f| instead of window
    integrals.  At p = 2 each window mean is exact: writing
    f(u + tau) = sum_nu C_nu(u) cos(l_nu tau) + S_nu(u) sin(l_nu tau), it is
    a quadratic form of (C, S) in the window Gram matrix.  Other p use
    ``WINDOW_PANELS`` Gauss-Legendre panels of ``GL_NODES`` nodes.  With
    ``grid.refine`` a bracketed scalar maximization sharpens the best
    sample.
    """
    grid = grid or WindowGrid()
    spec = f.spectrum
    return float(_window_norm(spec.freqs, spec.coefs[None], p, grid, resolve_span(f, grid))[0])


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
    vals = _window_norm(lams, coefs, p, grid, resolve_span(f, grid))
    out = np.maximum.accumulate(np.concatenate([[0.0], vals[:top]]))[steps]
    out[off] = np.maximum(out[off], vals[top:][which])
    return float(out[0]) if deltas.ndim == 0 else out.reshape(deltas.shape)


def _phi_panels(f: QuasiPeriodicFunction, delta: float) -> int:
    """Panels over [0, delta]: 8 a period of the top frequency, at least 64."""
    top = f.spectrum.max_frequency()
    need = 8 if top == 0.0 else int(math.ceil(delta * top / (2.0 * math.pi) * 8))
    return max(64, need)


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
    matrix product over all shifts; a and each shift's coefficient row are
    scaled by powers of two where their squares would underflow or overflow.
    At finite p each of the 1 + M integrands of a delta is a ``power_mean``
    over the quadrature nodes (scaled by its max, so a large p does not
    overflow); at p = inf all of them are the lanes of one refined grid
    sup over [0, delta].
    """
    deltas = np.asarray(deltas, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    if deltas.ndim != 1 or not np.all((deltas > 0.0) & (deltas < math.inf)):
        raise ValueError(f"deltas must be a 1-D list of finite numbers > 0, got {deltas!r}")
    if shifts.ndim != 1 or not np.all(np.isfinite(shifts)):
        raise ValueError(f"shifts must be a 1-D list of finite numbers, got {shifts!r}")
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1 (or inf), got {p}")
    if p == 2.0:
        lams = f.spectrum.freqs
        amps = 2.0 * f.term_values(x)
        scale = _unit_exponents(amps[None])
        amps = np.ldexp(amps, -scale)
        ls = np.multiply.outer(shifts, lams)
        h = np.sin(0.5 * ls)
        k = np.concatenate([2.0 * h * h * amps, np.sin(ls) * amps], axis=-1)
        k_scale = _unit_exponents(k)
        k = np.ldexp(k, -k_scale[:, None])
        point = ((amps @ _phi_gram(lams, deltas)) * amps).sum(axis=-1)
        shifted = np.zeros((deltas.size, 0))
        if shifts.size:  # the fit takes no shifts
            shifted = ((k @ _trig_gram(lams, deltas)) * k).sum(axis=-1)
        return (
            np.ldexp(np.sqrt(np.maximum(point, 0.0)), scale),
            np.ldexp(np.sqrt(np.maximum(shifted, 0.0)), scale + k_scale),
        )
    # lane 0 is |phi_x(t)|, lane 1 + m is |phi_x(t) - phi_x(t + s_m)|
    def lanes(t):
        t = np.broadcast_to(t, (1 + shifts.size, t.shape[1]))
        vals = f.second_difference(x, t)
        vals[1:] -= f.second_difference(x, t[1:] + shifts[:, None])
        return np.abs(vals)

    point = np.empty(deltas.size)
    shifted = np.empty((deltas.size, shifts.size))
    for j, d in enumerate(deltas.tolist()):
        if math.isinf(p):
            ts = np.linspace(0.0, d, 512)
            means = _sampled_sup(lanes, ts, d / 511, 0.0, d)
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


def best_approx_tail(f: QuasiPeriodicFunction, sigma: float) -> float:
    """Amplitude mass above the cutoff: an upper surrogate for the distance
    to band-limited approximants; exactly 0 once sigma clears the spectrum."""
    return float(f.spectrum.tail_mass(sigma))


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


# The widths at which ``fit_majorant`` samples the pointwise modulus.
FIT_DELTAS = SamplePlan.default(count=40).points


@dataclass(frozen=True)
class OmegaClassReport:
    """Class constants C1 and C2 of a majorant, a member when both are <= 1."""

    c1: float
    c2: float
    worst_gamma: float
    worst_delta: float

    @property
    def constant(self) -> float:
        return max(self.c1, self.c2)

    @property
    def member(self) -> bool:
        return self.constant <= 1.0


def _class_lhs(
    f: QuasiPeriodicFunction, x: float, p: float, plan: SamplePlan
) -> tuple[np.ndarray, np.ndarray]:
    """The lhs of both class constants: shifted-difference means shaped
    (gammas, deltas, signs) and pointwise moduli shaped (deltas,), the
    plan's points as both gammas and deltas."""
    shifts = [s * g for g in plan.points for s in (1.0, -1.0)]
    point, shifted = moduli(f, x, plan.points, shifts, p)
    shifted = shifted.reshape(len(plan.points), len(plan.points), 2)
    return shifted.transpose(1, 0, 2), point


def _worst(lhs: np.ndarray, wv: np.ndarray, keys) -> tuple[float, float]:
    """Largest lhs / w over the samples with lhs > 1e-14 (inf where w does
    not exceed 0) and the key of its first occurrence along axis 0;
    (0, 0) when no sample counts."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lhs > 1e-14, np.where(wv > 0.0, lhs / wv, math.inf), 0.0)
    if not ratio.size or not ratio.max() > 0.0:
        return 0.0, 0.0
    best = np.unravel_index(np.argmax(ratio), ratio.shape)
    return float(ratio[best]), float(keys[best[0]])


def _class_report(
    shifted: np.ndarray, point: np.ndarray, plan: SamplePlan, w: ModulusMajorant
) -> OmegaClassReport:
    wv = w(np.array(plan.points))  # one majorant call on every point
    c1, worst_g = _worst(shifted, wv[:, None, None], plan.points)
    c2, worst_d = _worst(point, wv, plan.points)
    return OmegaClassReport(c1, c2, worst_g, worst_d)


def omega_class_check(
    f: QuasiPeriodicFunction,
    x: float,
    w: ModulusMajorant,
    p: float,
    plan: SamplePlan | None = None,
) -> OmegaClassReport:
    """Estimate the smallest constants making the majorant dominate both the
    shifted-difference means (C1) and the pointwise modulus (C2) on the
    sample grid.  phi_x is even, so the minus shift is scanned as t - gamma
    with t - gamma < 0 folded back by evenness."""
    plan = plan or SamplePlan.default()
    return _class_report(*_class_lhs(f, x, p, plan), plan, w)


def check_eq7(
    f: QuasiPeriodicFunction,
    x: float,
    w: ModulusMajorant,
    delta1: float,
    delta2: float,
) -> bool:
    """|Phi_x(delta1, delta2)| <= w(delta1) + w(delta2), with float slack.

    Meaningful when (f, x, w) passed ``omega_class_check`` with constant
    <= 1 after rescaling.
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


def fit_majorant(f: QuasiPeriodicFunction, x: float, p: float) -> TableModulus:
    """Concave nondecreasing table majorant dominating the pointwise modulus
    sampled at ``FIT_DELTAS``; constant beyond the peak."""
    point, _ = moduli(f, x, FIT_DELTAS, (), p)
    samples = [(0.0, 0.0)] + list(zip(FIT_DELTAS, point.tolist()))
    return TableModulus(tuple(_concave_envelope(samples)))


def fit_class_majorant(
    f: QuasiPeriodicFunction,
    x: float,
    p: float,
    plan: SamplePlan | None = None,
) -> tuple[ModulusMajorant, OmegaClassReport]:
    """Fit a majorant and rescale it so the class constants drop to <= 1.

    Returns the rescaled majorant together with the post-rescale report.
    The lhs table is computed once; both reports divide it by a majorant.
    """
    plan = plan or SamplePlan.default()
    base = fit_majorant(f, x, p)
    lhs = _class_lhs(f, x, p, plan)
    rep = _class_report(*lhs, plan, base)
    scale = max(rep.constant, 1.0) * (1.0 + 1e-9)
    if not math.isfinite(scale):
        raise ValueError(
            "fitted majorant vanishes where the moduli do not; cannot rescale"
        )
    w = base.scaled(scale)
    return w, _class_report(*lhs, plan, w)
