"""Windowed norms, moduli of continuity, and majorant machinery.

The windowed p-norm of a bounded quasi-periodic function is

    N_p(f) = sup_u ( (1/pi) int_u^{u+pi} |f|^p )^{1/p}    (1 < p < inf)
    N_inf(f) = sup_u |f(u)|,

approximated from below by sampling u (plus a local refinement step).
On top of it sit the translate modulus

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

hold on a sample grid.  With both constants scaled to <= 1, the window
average obeys |Phi_x(d1, d2)| <= w(d1) + w(d2) (``check_eq7``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .spectra import QuasiPeriodicFunction, _gl_panels

__all__ = [
    "ModulusMajorant",
    "PowerModulus",
    "TableModulus",
    "majorant_from_dict",
    "majorant_to_dict",
    "WindowGrid",
    "SamplePlan",
    "resolve_span",
    "shifted_difference_mean",
    "stepanov_norm",
    "modulus_omega",
    "pointwise_modulus",
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


class ModulusMajorant:
    """Interface: callable on delta >= 0, scalable, serializable."""

    def __call__(self, delta):  # pragma: no cover - abstract
        raise NotImplementedError

    def scaled(self, factor: float) -> "ModulusMajorant":  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class PowerModulus(ModulusMajorant):
    """w(delta) = coef * min(delta, cap) ** exponent with 0 < exponent <= 1."""

    coef: float
    exponent: float = 1.0
    cap: float = math.inf

    def __post_init__(self):
        if self.coef < 0.0:
            raise ValueError("coef must be >= 0")
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
class TableModulus(ModulusMajorant):
    """Piecewise-linear majorant through (0,0); constant beyond the last knot.

    Construction verifies nondecreasing values and subadditivity on every
    knot pair.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ds = [d for d, _ in self.knots]
        ws = [w for _, w in self.knots]
        if not ds or ds[0] != 0.0 or ws[0] != 0.0:
            raise ValueError("knots must start at (0, 0)")
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise ValueError("knot abscissae must increase strictly")
        if any(w < 0.0 for w in ws) or any(b < a for a, b in zip(ws, ws[1:])):
            raise ValueError("knot values must be nonnegative and nondecreasing")
        for i, di in enumerate(ds[1:], 1):
            for dj in ds[1:i + 1]:
                if self._eval(di + dj) > self._eval(di) + self._eval(dj) + 1e-12:
                    raise ValueError(
                        f"not subadditive at knots ({di:.6g}, {dj:.6g})"
                    )

    def _eval(self, delta):
        ds = np.array([d for d, _ in self.knots])
        ws = np.array([w for _, w in self.knots])
        return np.interp(delta, ds, ws)

    def __call__(self, delta):
        out = self._eval(np.asarray(delta, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    def scaled(self, factor: float) -> "TableModulus":
        return TableModulus(tuple((d, w * factor) for d, w in self.knots))


def majorant_from_dict(data: dict) -> ModulusMajorant:
    kind = data.get("type")
    if kind == "power":
        return PowerModulus(
            float(data["C"]),
            float(data.get("gamma", 1.0)),
            float(data.get("cap", math.inf)),
        )
    if kind == "table":
        return TableModulus(tuple((float(d), float(w)) for d, w in data["knots"]))
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


@dataclass(frozen=True)
class WindowGrid:
    """Sampling plan for the windowed norms.

    ``u_span = None`` spans one common period of the spectrum when the
    frequencies lock onto a rational grid, else 64 periods of the slowest
    positive frequency (a pragmatic almost-period).
    """

    u_samples: int = 512
    window_length: float = math.pi
    panels_per_window: int = 16
    gl_nodes: int = 8
    u_span: float | None = None
    refine: bool = True

    def __post_init__(self):
        if self.u_samples < 1 or self.panels_per_window < 1 or self.gl_nodes < 2:
            raise ValueError("grid counts must be positive")
        if self.window_length <= 0.0:
            raise ValueError("window_length must be positive")


def _float_gcd(a: float, b: float, tol: float) -> float:
    while b > tol:
        a, b = b, math.fmod(a, b)
    return a


def resolve_span(f: QuasiPeriodicFunction, grid: WindowGrid) -> float:
    if grid.u_span is not None:
        return grid.u_span
    pos = [e.freq for e in f.spectrum.entries if e.freq > 0.0]
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


def stepanov_norm(f: QuasiPeriodicFunction, p: float, grid: WindowGrid | None = None) -> float:
    """Windowed p-norm, a from-below approximation (sup over sampled u).

    Rejects p <= 1; p = inf takes the grid sup of |f| instead of window
    integrals.  With ``grid.refine`` a bracketed scalar maximization
    sharpens the best sample.
    """
    if not p > 1.0:
        raise ValueError(f"p must be > 1 (or inf), got {p}")
    grid = grid or WindowGrid()
    span = resolve_span(f, grid)

    if math.isinf(p):
        n = max(8 * grid.u_samples, 2048)
        u = np.linspace(0.0, span, n, endpoint=False)
        vals = np.abs(f(u))
        best = int(np.argmax(vals))
        peak = float(vals[best])
        if grid.refine:
            h = span / n
            res = minimize_scalar(
                lambda s: -abs(f(s)),
                bounds=(u[best] - h, u[best] + h),
                method="bounded",
                options={"xatol": 1e-10},
            )
            peak = max(peak, float(-res.fun))
        return peak

    offs, wts = _gl_panels(
        0.0, grid.window_length, grid.panels_per_window, grid.gl_nodes
    )
    u = np.linspace(0.0, span, grid.u_samples, endpoint=False)
    vals = np.abs(f(u[:, None] + offs[None, :])) ** p
    means = vals @ wts / grid.window_length

    def window_mean(s: float) -> float:
        return float(np.dot(np.abs(f(s + offs)) ** p, wts)) / grid.window_length

    best = int(np.argmax(means))
    top = float(means[best])
    if grid.refine:
        h = span / grid.u_samples
        res = minimize_scalar(
            lambda s: -window_mean(s),
            bounds=(u[best] - h, u[best] + h),
            method="bounded",
            options={"xatol": 1e-9},
        )
        top = max(top, float(-res.fun))
    return top ** (1.0 / p)


def modulus_omega(
    f: QuasiPeriodicFunction,
    delta: float,
    p: float,
    grid: WindowGrid | None = None,
) -> float:
    """Translate modulus sup_{|t| <= delta} N_p(f(.+t) - f), from below.

    Shifts are sampled on the canonical lattice plus the endpoint; the two
    shift signs give equal norms, so only t > 0 is scanned.
    """
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0.0:
        return 0.0
    steps = int(delta / T_LATTICE)
    ts = [i * T_LATTICE for i in range(1, steps + 1)]
    if not ts or ts[-1] < delta:
        ts.append(delta)
    return max(stepanov_norm(f.translate_difference(t), p, grid) for t in ts)


def _phi_panels(f: QuasiPeriodicFunction, delta: float, n_panels: int | None) -> int:
    if n_panels is not None:
        return n_panels
    top = f.spectrum.max_frequency()
    need = 8 if top == 0.0 else int(math.ceil(delta * top / (2.0 * math.pi) * 8))
    return max(64, need)


def pointwise_modulus(
    f: QuasiPeriodicFunction,
    x: float,
    delta: float,
    p: float,
    n_panels: int | None = None,
) -> float:
    """((1/delta) int_0^delta |phi_x|^p dt)^(1/p) for p >= 1; grid sup at p=inf."""
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if math.isinf(p):
        t = np.linspace(0.0, delta, 512)
        vals = np.abs(f.second_difference(x, t))
        best = int(np.argmax(vals))
        peak = float(vals[best])
        h = delta / 511
        res = minimize_scalar(
            lambda s: -abs(f.second_difference(x, s)),
            bounds=(max(0.0, t[best] - h), min(delta, t[best] + h)),
            method="bounded",
            options={"xatol": 1e-10},
        )
        return max(peak, float(-res.fun))
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1 (or inf), got {p}")
    t, w = _gl_panels(0.0, delta, _phi_panels(f, delta, n_panels), 8)
    vals = np.abs(f.second_difference(x, t)) ** p
    return (float(np.dot(w, vals)) / delta) ** (1.0 / p)


def phi_average(f: QuasiPeriodicFunction, x: float, delta: float, nu: float) -> float:
    """(1/delta) int_nu^{nu+delta} phi_x(u) du; smooth integrand, high accuracy."""
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if nu < 0.0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    t, w = _gl_panels(nu, nu + delta, _phi_panels(f, delta, None), 8)
    return float(np.dot(w, f.second_difference(x, t))) / delta


def best_approx_tail(f: QuasiPeriodicFunction, sigma: float) -> float:
    """Amplitude mass above the cutoff: an upper surrogate for the distance
    to band-limited approximants; exactly 0 once sigma clears the spectrum."""
    return float(f.spectrum.tail_mass(sigma))


@dataclass(frozen=True)
class SamplePlan:
    """Shift/width samples for the class-constant estimation.

    ``n_panels = None`` sizes quadrature panels to the fastest spectral
    oscillation.
    """

    gammas: tuple[float, ...]
    deltas: tuple[float, ...]
    n_panels: int | None = None
    both_signs: bool = True

    @classmethod
    def default(cls, top: float = 2.0 * math.pi, count: int = 20) -> "SamplePlan":
        pts = tuple(top * i / count for i in range(1, count + 1))
        return cls(gammas=pts, deltas=pts)


@dataclass(frozen=True)
class OmegaClassReport:
    c1: float
    c2: float
    threshold: float
    worst_gamma: float
    worst_delta: float

    @property
    def constant(self) -> float:
        return max(self.c1, self.c2)

    @property
    def member(self) -> bool:
        return self.constant <= self.threshold


def shifted_difference_mean(
    f: QuasiPeriodicFunction,
    x: float,
    delta: float,
    gamma: float,
    p: float,
    n_panels: int | None = None,
) -> float:
    """((1/delta) int_0^delta |phi_x(t) - phi_x(t + gamma)|^p dt)^(1/p).

    The minus shift is gamma < 0; phi_x is even, so negative arguments fold
    back automatically.
    """
    t, w = _gl_panels(0.0, delta, _phi_panels(f, delta, n_panels), 8)
    vals = np.abs(f.second_difference(x, t) - f.second_difference(x, t + gamma)) ** p
    return (float(np.dot(w, vals)) / delta) ** (1.0 / p)


def omega_class_check(
    f: QuasiPeriodicFunction,
    x: float,
    w: ModulusMajorant,
    p: float,
    plan: SamplePlan | None = None,
    threshold: float = 1.0,
) -> OmegaClassReport:
    """Estimate the smallest constants making the majorant dominate both the
    shifted-difference means (C1) and the pointwise modulus (C2) on the
    sample grid.  phi_x is even, so the minus shift is scanned as t - gamma
    with t - gamma < 0 folded back by evenness."""
    plan = plan or SamplePlan.default()
    c1 = 0.0
    worst_g = 0.0
    signs = (1.0, -1.0) if plan.both_signs else (1.0,)
    for g in plan.gammas:
        wg = float(w(g))
        for d in plan.deltas:
            for s in signs:
                lhs = shifted_difference_mean(f, x, d, s * g, p, plan.n_panels)
                if lhs <= 1e-14:
                    continue
                ratio = lhs / wg if wg > 0.0 else math.inf
                if ratio > c1:
                    c1, worst_g = ratio, g
    c2 = 0.0
    worst_d = 0.0
    for d in plan.deltas:
        wd = float(w(d))
        lhs = pointwise_modulus(f, x, d, p, plan.n_panels)
        if lhs <= 1e-14:
            continue
        ratio = lhs / wd if wd > 0.0 else math.inf
        if ratio > c2:
            c2, worst_d = ratio, d
    return OmegaClassReport(c1, c2, threshold, worst_g, worst_d)


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


def fit_majorant(
    f: QuasiPeriodicFunction,
    x: float,
    p: float,
    deltas=None,
    n_panels: int | None = None,
) -> TableModulus:
    """Concave nondecreasing table majorant dominating the sampled pointwise
    modulus; constant beyond the peak."""
    if deltas is None:
        deltas = [2.0 * math.pi * i / 40 for i in range(1, 41)]
    samples = [(0.0, 0.0)] + [
        (float(d), pointwise_modulus(f, x, float(d), p, n_panels)) for d in deltas
    ]
    return TableModulus(tuple(_concave_envelope(samples)))


def fit_class_majorant(
    f: QuasiPeriodicFunction,
    x: float,
    p: float,
    plan: SamplePlan | None = None,
    deltas=None,
) -> tuple[ModulusMajorant, OmegaClassReport]:
    """Fit a majorant and rescale it so the class constants drop to <= 1.

    Returns the rescaled majorant together with the post-rescale report.
    """
    plan = plan or SamplePlan.default()
    base = fit_majorant(f, x, p, deltas, plan.n_panels)
    rep = omega_class_check(f, x, base, p, plan)
    scale = max(rep.constant, 1.0) * (1.0 + 1e-9)
    if not math.isfinite(scale):
        raise ValueError(
            "fitted majorant vanishes where the moduli do not; cannot rescale"
        )
    w = base.scaled(scale)
    final = omega_class_check(f, x, w, p, plan)
    return w, final
