"""Quasi-periodic test functions with separated frequency spectra.

A test function is a finite real trigonometric sum

    f(x) = a_0 + sum_nu (c_nu cos(l_nu x) + s_nu sin(l_nu x)),

stored as strictly increasing nonnegative frequencies ``l_nu``, each with
the cos and sin coefficients ``c_nu``, ``s_nu`` as a spectrum file gives
them (the constant term ``a_0`` is the cos coefficient at frequency 0).
Consecutive frequencies must be separated by at least the declared gap
``alpha``.

Evaluation, cutoff sums and tails, and symmetric second differences are
all pure functions of immutable inputs, as is ``power_mean``, which the
strong means and the measures share.
``_number`` and ``_keys`` read every number and object of the package's
JSON inputs: spectrum, matrix, majorant, window grid and config.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "SpectrumError",
    "SpectrumEntry",
    "Spectrum",
    "QuasiPeriodicFunction",
    "ValidationIssue",
    "ValidationReport",
    "validate_spectrum",
    "power_mean",
    "spectrum_from_dict",
    "load_spectrum",
]

# Relative slack for frequency comparisons against band edges and cutoffs.
FREQ_RTOL = 1e-12


def _slack(gammas) -> np.ndarray:
    """The slack FREQ_RTOL * max(1, gamma) of every frequency comparison
    against a cutoff gamma: the cutoff ladder's and the kernel bands'."""
    return FREQ_RTOL * np.maximum(1.0, gammas)


class SpectrumError(ValueError):
    """Raised when a spectrum violates its structural constraints."""


def _number(value) -> float:
    """A JSON number that is not a bool, or the "inf" or "-inf" that a
    config echo writes, as a float; TypeError for anything else."""
    number = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
    if not (number or isinstance(value, str) and value in ("inf", "-inf")):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)  # OverflowError for an int beyond the float range


def _keys(obj, allowed, what: str):
    """``obj`` if it is a JSON object whose every key is in ``allowed``;
    TypeError naming ``what`` for anything else."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be an object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise TypeError(f"unknown {what} key {key!r}")
    return obj


def _lattice(freqs: np.ndarray) -> tuple[float, np.ndarray] | None:
    """(g, m), the step g and read-only integers m (N,) with each m_j g
    within 2 ulps of freqs_j, else None (at once if one is not finite).  m
    rounds freqs over the step of a Euclid loop on the positive frequencies
    in order (remainders up to 1e-9 of the largest count as 0), the step
    refit after each frequency as that frequency over its rounded quotient
    so that it does not drift, and g is refit as the largest frequency over
    its m.  Integer frequencies whose gcd exceeds 1e-9 of the largest get
    that gcd, m g = freqs to the bit; a spectrum with no positive frequency
    gets g = 1 and m = 0."""
    if not np.isfinite(freqs).all():
        return None
    pos = [lam for lam in freqs.tolist() if lam > 0.0]
    g = pos[0] if pos else 1.0
    tol = 1e-9 * max(pos, default=0.0)
    for lam in pos[1:]:
        a, b = g, lam
        while b > tol:
            a, b = b, math.fmod(a, b)
        if a <= tol:
            return None
        g = lam / round(lam / a)
    m = np.rint(freqs / g)
    g = max(pos, default=1.0) / float(m.max(initial=1.0))  # the top m is the top frequency's
    if not (np.abs(m * g - freqs) <= 2.0 * np.spacing(freqs)).all():
        return None
    m = m.astype(np.int64)
    m.setflags(write=False)
    return g, m


@dataclass(frozen=True)
class SpectrumEntry:
    """One nonnegative frequency with its cos and sin coefficients."""

    freq: float
    cos_coef: float
    sin_coef: float


@dataclass(frozen=True)
class Spectrum:
    """Finite frequency content of one test function plus its gap ``alpha``.
    ``entries`` is the public form; the read-only arrays built from it once
    are ``freqs`` (N,), cos/sin rows ``coefs`` (N, 2) and ``tails`` (N + 1,),
    tails[i] the amplitude mass of the entries from i on (each entry weighs
    libm's hypot of its coefficients); tails[0] bounds |f|; ``lattice`` is
    (g, m), every frequency m_j g for one step g, or None (``_lattice``)."""

    alpha: float
    entries: tuple[SpectrumEntry, ...]

    def __post_init__(self):
        coefs = np.array([(e.cos_coef, e.sin_coef) for e in self.entries], float).reshape(-1, 2)
        weights = np.hypot(coefs[:, 0], coefs[:, 1])
        for name, arr in (
            ("freqs", np.array([e.freq for e in self.entries], dtype=float)),
            ("coefs", coefs),
            ("tails", np.append(np.cumsum(weights[::-1])[::-1], 0.0)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "lattice", _lattice(self.freqs))

    @classmethod
    def from_cos_sin(
        cls, alpha: float, terms: Iterable[tuple[float, float, float]]
    ) -> "Spectrum":
        """Build from ``(frequency, cos coefficient, sin coefficient)`` triples."""
        entries = sorted(
            (SpectrumEntry(float(freq), float(c), float(s)) for freq, c, s in terms),
            key=lambda e: e.freq,
        )
        if any(e.freq == 0.0 and e.sin_coef != 0.0 for e in entries):
            raise SpectrumError("sine coefficient at frequency 0 must be 0")
        return cls(float(alpha), tuple(entries))

    def max_frequency(self) -> float:
        return self.entries[-1].freq if self.entries else 0.0

    def cutoff_count(self, gammas) -> np.ndarray:
        """Number of entries with frequency <= gamma, elementwise in ``gammas``.

        The comparison carries the slack ``_slack(gamma)``, so a frequency
        sitting on a cutoff up to rounding counts as inside it.
        """
        gammas = np.asarray(gammas, dtype=float)
        if not (gammas >= 0.0).all():
            raise ValueError(f"cutoffs must be >= 0, got {gammas!r}")
        return self.freqs.searchsorted(gammas + _slack(gammas), side="right")

    def tail_mass(self, sigmas) -> np.ndarray:
        """Pair-weight mass of the entries above each cutoff in ``sigmas``."""
        return self.tails[self.cutoff_count(sigmas)]


def _trig_sum(freqs: np.ndarray, coefs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j c_j cos(l_j x) + s_j sin(l_j x) for cos/sin rows ``coefs``
    (..., N, 2) that broadcast against x, the terms added one at a time in
    spectrum order: a dense grid of x costs memory of its own size only."""
    out = np.zeros(np.broadcast_shapes(coefs.shape[:-2], x.shape))
    for j, lam in enumerate(freqs.tolist()):
        lx = lam * x
        out += coefs[..., j, 0] * np.cos(lx) + coefs[..., j, 1] * np.sin(lx)
    return out


def _difference_rows(spectrum: Spectrum, shifts) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero frequencies (M,) and the cos/sin rows, shifts.shape +
    (M, 2), of x -> f(x + t) - f(x) at each shift t: each term's (c, s)
    turned by r = exp(i l t) - 1, (c Re r + s Im r, s Re r - c Im r)."""
    moving = spectrum.freqs != 0.0
    lams, (c, s) = spectrum.freqs[moving], spectrum.coefs[moving].T
    r = np.exp(1j * np.multiply.outer(shifts, lams)) - 1.0
    return lams, np.stack([c * r.real + s * r.imag, s * r.real - c * r.imag], axis=-1)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    index: int
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def codes(self) -> tuple[str, ...]:
        return tuple(i.code for i in self.issues)

    def __str__(self) -> str:
        return "; ".join(f"{i.code}[{i.index}]: {i.detail}" for i in self.issues)


@dataclass(frozen=True)
class QuasiPeriodicFunction:
    """Exactly evaluable real function defined by a finite spectrum."""

    spectrum: Spectrum

    def __call__(self, x):
        """Evaluate f at scalar or array ``x``; exact finite sum."""
        spec = self.spectrum
        out = _trig_sum(spec.freqs, spec.coefs, np.asarray(x, dtype=float))
        return float(out) if out.ndim == 0 else out

    def term_values(self, x) -> np.ndarray:
        """Per-entry additive contribution to f(x), shape x.shape + (N,) in
        spectrum order; each value is the term ``__call__`` adds."""
        lx = np.multiply.outer(x, self.spectrum.freqs)
        coefs = self.spectrum.coefs
        return coefs[:, 0] * np.cos(lx) + coefs[:, 1] * np.sin(lx)

    def partial_sums(self, x, gammas) -> np.ndarray:
        """Cutoff sums S_gamma f(x), the terms with frequency <= gamma,
        shape x.shape + gammas.shape: one term evaluation and a prefix sum.
        Past the top frequency the sum is f(x) to the bit."""
        terms = self.term_values(x)
        prefix = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
        np.cumsum(terms, axis=-1, out=prefix[..., 1:])
        return prefix[..., self.spectrum.cutoff_count(gammas)]

    def second_difference(self, x: float, t):
        """f(x+t) + f(x-t) - 2 f(x), evaluated term by term.

        Uses cos(l t) - 1 = -2 sin^2(l t / 2) per term, which keeps the
        quadratic small-t behaviour free of cancellation.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for lam, g in zip(self.spectrum.freqs.tolist(), self.term_values(x).tolist()):
            if lam != 0.0:
                s = np.sin(0.5 * lam * t)
                out += -4.0 * g * (s * s)
        return float(out) if out.ndim == 0 else out


def validate_spectrum(obj) -> ValidationReport:
    """Report ordering, gap, and amplitude violations; never raises."""
    spec = obj.spectrum if isinstance(obj, QuasiPeriodicFunction) else obj
    issues: list[ValidationIssue] = []
    if not math.isfinite(spec.alpha) or spec.alpha <= 0.0:
        issues.append(ValidationIssue("alpha", -1, f"gap alpha={spec.alpha!r} must be positive"))
    prev = None
    for i, e in enumerate(spec.entries):
        if not math.isfinite(e.freq) or e.freq < 0.0:
            issues.append(ValidationIssue("frequency", i, f"frequency {e.freq!r} invalid"))
            continue
        if not (math.isfinite(e.cos_coef) and math.isfinite(e.sin_coef)):
            detail = f"coefficients cos={e.cos_coef!r}, sin={e.sin_coef!r} must be finite"
            issues.append(ValidationIssue("amplitude", i, detail))
        if e.freq == 0.0:
            if i != 0:
                issues.append(
                    ValidationIssue("ordering", i, "zero frequency allowed only first")
                )
            if e.sin_coef != 0.0:
                issues.append(
                    ValidationIssue("dc-amplitude", i, "constant term must be real")
                )
        else:
            if e.cos_coef == 0.0 and e.sin_coef == 0.0:
                issues.append(
                    ValidationIssue("zero-amplitude", i, f"entry at {e.freq} has zero amplitude")
                )
        if prev is not None:
            if e.freq <= prev:
                issues.append(
                    ValidationIssue("ordering", i, f"{e.freq} not above predecessor {prev}")
                )
            elif e.freq - prev < spec.alpha * (1.0 - FREQ_RTOL):
                issues.append(
                    ValidationIssue(
                        "gap", i, f"gap {e.freq - prev:.6g} below alpha={spec.alpha:.6g}"
                    )
                )
        prev = e.freq
    return ValidationReport(tuple(issues))


# The one Gauss-Legendre rule of every composite quadrature in the package:
# numpy's leggauss(8) nodes and weights, written out (the positive half,
# then mirrored) so that no run loads numpy.polynomial (1.7 MB resident).
GL_NODES = 8
_GL_XI = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WT = np.array([0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
_GL_XI, _GL_WT = np.concatenate([-_GL_XI[::-1], _GL_XI]), np.concatenate([_GL_WT[::-1], _GL_WT])


def _gl_panels(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [lo, hi] with ``n_panels`` equal
    panels of ``GL_NODES`` nodes each; nodes and weights are panel-major."""
    h = (hi - lo) / n_panels
    centers = lo + (np.arange(n_panels) + 0.5) * h
    t = (centers[:, None] + 0.5 * h * _GL_XI[None, :]).ravel()
    return t, np.tile(0.5 * h * _GL_WT, n_panels)


def power_mean(weights, values, q: float):
    """( sum w_k v_k^q )^(1/q) over the last axis for nonnegative v and
    weights summing to 1: a float for one row, an array for a table.

    Scaling by the largest weighed value keeps small q stable, keeps large
    q from overflowing and makes amplitude homogeneity exact to rounding.
    Rows sum left to right, so zeros padded after a row leave its mean
    unchanged to the bit."""
    w, v = np.broadcast_arrays(np.asarray(weights, dtype=float), np.abs(values))
    live = w > 0.0
    top = np.max(v, axis=-1, initial=0.0, where=live, keepdims=True)
    terms = w * np.divide(v, top, out=np.zeros(v.shape), where=live & (top > 0.0)) ** q
    total = np.cumsum(terms, axis=-1)[..., -1] if v.shape[-1] else np.zeros(v.shape[:-1])
    means = top[..., 0] * total ** (1.0 / q)
    return float(means) if means.ndim == 0 else means


def spectrum_from_dict(data: dict) -> Spectrum:
    """The spectrum of a JSON object ``alpha``, ``entries``, each entry
    ``lambda`` with ``cos`` and ``sin`` (0 if absent); else SpectrumError."""
    try:
        alpha = _number(_keys(data, ("alpha", "entries"), "spectrum")["alpha"])
        terms = []
        for e in data["entries"]:
            _keys(e, ("lambda", "cos", "sin"), "spectrum entry")
            terms.append((_number(e["lambda"]), _number(e.get("cos", 0.0)), _number(e.get("sin", 0.0))))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpectrumError(f"malformed spectrum data: {exc}") from exc
    return Spectrum.from_cos_sin(alpha, terms)


def load_spectrum(path, allow_invalid: bool = False) -> QuasiPeriodicFunction:
    """Load a spectrum file, rejecting structural violations unless
    ``allow_invalid``, which skips validation altogether."""
    with open(path) as fh:
        data = json.load(fh)
    spec = spectrum_from_dict(data)
    if not allow_invalid:
        report = validate_spectrum(spec)
        if not report.ok:
            raise SpectrumError(f"invalid spectrum in {path}: {report}")
    return QuasiPeriodicFunction(spec)
