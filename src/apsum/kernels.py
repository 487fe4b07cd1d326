"""Band kernels and two routes to spectral partial sums.

For cutoffs 0 < l < e the band kernel

    Psi_{l,e}(t) = 2 sin((e-l)t/2) sin((e+l)t/2) / (pi (e-l) t^2)

integrated against the symmetrized translate f(x+t) + f(x-t) over t >= 0
reproduces the partial sum of f at cutoff l, provided the open band (l, e)
contains no frequency of f.  With a gap-alpha spectrum and the cutoff
ladder l = alpha*k/2, e = alpha*(k+1)/2, the kernel takes the closed form

    Psi_k(t) = 4 sin(alpha t/4) sin(alpha(2k+1) t/4) / (alpha pi t^2)
             = 2 [cos(alpha k t/2) - cos(alpha (k+1) t/2)] / (alpha pi t^2).

``partial_sum_direct`` truncates the spectrum; ``partial_sum_kernel_table``
folds Psi_k into its node grid (no function evaluates the kernel alone),
evaluates the kernel integral numerically (plus the exact oscillatory tail
beyond the truncation point) and is cross-validated against the direct
route; it contracts its grid once per spectral term and Gauss node, not
once per x, and bounds the integrand by 2 sum_j |term_j(x)| times the x-free
weight in its error budget.  When a frequency falls inside the open band,
the cutoff sum is recovered from the next band up minus the offending term
(single-step index shift; the gap condition guarantees the next band is
clean).
"""

from __future__ import annotations

import math

import numpy as np

from .spectra import _GL_WT, _GL_XI, GL_NODES, QuasiPeriodicFunction, Spectrum, SpectrumError, _slack

__all__ = [
    "QuadratureToleranceError",
    "partial_sum_direct",
    "partial_sum_kernel_table",
    "kernel_mass",
]


# The kernel integral is taken over [0, T], T = TRUNCATION_PERIODS periods
# 2*pi/alpha of the gap frequency, on equal panels of GL_NODES nodes each,
# PANELS_PER_OSCILLATION of them to a period of the fastest oscillation.
TRUNCATION_PERIODS = 200
PANELS_PER_OSCILLATION = 4
# The error budget of the kernel integral: an entry fails when its error
# estimate is not within max(QUAD_ABS_TOL, QUAD_REL_TOL * |value|), a NaN
# estimate included.
QUAD_REL_TOL = 1e-6
QUAD_ABS_TOL = 1e-6


class QuadratureToleranceError(RuntimeError):
    """Requested tolerance not met; carries the achieved error estimate."""

    def __init__(self, value: float, error_estimate: float, tolerance: float):
        self.value = value
        self.error_estimate = error_estimate
        self.tolerance = tolerance
        super().__init__(
            f"kernel quadrature error estimate {error_estimate:.3e} exceeds "
            f"tolerance {tolerance:.3e} (value {value:.6g})"
        )


def partial_sum_direct(f: QuasiPeriodicFunction, gamma: float, x: float) -> float:
    """Sum of spectral terms with frequency <= gamma (boundary inclusive)."""
    return float(f.partial_sums(x, gamma))


def _band_edges(alpha: float, k):
    return 0.5 * alpha * k, 0.5 * alpha * (k + 1)


def _band_hits(f: QuasiPeriodicFunction, ks) -> np.ndarray:
    """Mask of the frequencies inside each open band (alpha k/2, alpha (k+1)/2),
    shape (len(ks), entries): those that the cutoff ladder's ``cutoff_count``
    leaves out at alpha k/2 and that lie below alpha (k+1)/2 by more than
    the same slack."""
    spec = f.spectrum
    lo, hi = _band_edges(spec.alpha, np.asarray(ks, dtype=float)[:, None])
    above = np.arange(spec.freqs.size) >= spec.cutoff_count(lo)
    return above & (spec.freqs < hi - _slack(hi))


def _cos_tail(mu: np.ndarray, T: float) -> np.ndarray:
    """Exact int_T^inf cos(mu t) / t^2 dt, elementwise in mu >= 0."""
    # imported here, so that only the kernel route loads scipy.special
    from scipy.special import sici

    mu = np.asarray(mu, dtype=float)
    si, _ = sici(mu * T)
    return np.cos(mu * T) / T - mu * (0.5 * math.pi - si)


# Peano-kernel constant of the m-node Gauss-Legendre error term,
# E <= K_m * h * (h*numax/2)^(2m) * max|integrand|; amplitude stands in for
# the 2m-th derivative envelope, hence the safety factor at the call site.
def _gl_error_constant(m: int) -> float:
    return (
        math.factorial(m) ** 4
        * 4.0**m
        / ((2 * m + 1) * math.factorial(2 * m) ** 3)
    )


_QUAD_SAFETY = 16.0


def _exact_band_tail(
    f: QuasiPeriodicFunction, terms: np.ndarray, bands, T: float
) -> np.ndarray:
    """Exact int_T^inf (f(x+t)+f(x-t)) Psi_b dt via the beat decomposition,
    for each row of term values in ``terms`` and each band b in ``bands``;
    shape (len(terms), len(bands)).

    Each spectral frequency l beats against the band edges into four
    cosines cos(mu t) with mu in {|l-w1|, l+w1, |l-w2|, l+w2}, and
    int_T^inf cos(mu t)/t^2 dt is closed-form; mu does not depend on x, so
    one call covers every (band, frequency) pair.
    """
    alpha = f.spectrum.alpha
    w1, w2 = _band_edges(alpha, np.asarray(bands, dtype=float)[:, None])
    lam = f.spectrum.freqs
    c = _cos_tail(np.stack([abs(lam - w1), lam + w1, abs(lam - w2), lam + w2]), T)
    beats = c[0] + c[1] - c[2] - c[3]  # (bands, entries)
    return (2.0 / (alpha * math.pi)) * (terms @ beats.T)


def partial_sum_kernel_table(f: QuasiPeriodicFunction, ks, xs) -> np.ndarray:
    """Kernel-route cutoff sums S_{alpha k/2} f(x), shape (len(xs), len(ks)).

    One node grid, sized for the largest band, serves every band and every
    evaluation point.  Its panel count is rounded up to a multiple of
    TRUNCATION_PERIODS / 4, so that the band oscillation sin(alpha(2b+1)t/4)
    advances by the same root of unity from panel to panel and repeats
    every L panels.  The integrand is linear in the term values and its
    weight, the envelope over t^2, depends on neither x nor the spectrum, so
    per Gauss node one GEMM contracts the grid's blocks of L panels: the
    (block, entry) cos/sin table of each block's start phase against the
    node's (block, L) weight.  Only then do the x come in, through one
    (x, entry) by (entry, L) product with the rotated (entry, L) cos/sin
    table; one FFT of length L per node then gives every band at once, read
    at bin (2b+1) mod L.  The error budget takes 2 sum_j |term_j(x)|, a bound
    on |f(x+t) + f(x-t)|, times the weight's largest node value on each
    panel; the table raises QuadratureToleranceError when the budget of any
    entry is not within max(QUAD_ABS_TOL, QUAD_REL_TOL * |value|), and
    ValueError on a non-finite x.
    """
    bad = [k for k in ks if not float(k).is_integer()]
    if bad:
        raise ValueError(f"band index k must be an integer, got {bad[0]!r}")
    ks = [int(k) for k in ks]
    xs = [float(x) for x in xs]
    bad = [x for x in xs if not math.isfinite(x)]
    if bad:
        raise ValueError(f"x must be finite, got {bad[0]!r}")
    if any(k < 1 for k in ks):
        raise ValueError("kernel route requires k >= 1; use partial_sum_direct for k = 0")
    if not ks:
        return np.zeros((len(xs), 0))
    alpha = f.spectrum.alpha

    # a k whose open band holds a frequency reads band k + 1 instead, less
    # that one offending term; the gap condition admits no second one and
    # needs band k + 1 clean
    hits = _band_hits(f, ks)
    above = _band_hits(f, [k + 1 for k in ks]).any(axis=1)
    for k, count, dirty in zip(ks, hits.sum(axis=1).tolist(), above):
        if count > 1:
            lo, hi = _band_edges(alpha, k)
            raise SpectrumError(
                f"band ({lo:.6g}, {hi:.6g}) holds {count} frequencies; the gap "
                "condition admits at most one"
            )
        if count and dirty:
            raise SpectrumError(f"band above k={k} is not clean; spectrum violates its gap")
    plan = np.add(ks, hits.any(axis=1))
    bands = np.unique(plan).tolist()

    T = TRUNCATION_PERIODS * (2.0 * math.pi / alpha)
    band_max = bands[-1]
    numax = f.spectrum.max_frequency() + 0.5 * alpha * (band_max + 1)
    width = (2.0 * math.pi / numax) / PANELS_PER_OSCILLATION
    # With n_panels = fold * L and T = TRUNCATION_PERIODS * 2 pi / alpha, a
    # panel advances the band phase alpha (2b+1) t / 4 by 2 pi (2b+1) / L.
    assert TRUNCATION_PERIODS % 4 == 0
    fold = TRUNCATION_PERIODS // 4
    L = math.ceil(math.ceil(T / width) / fold)
    h = T / (fold * L)

    # Band-independent factor of the integrand:
    #   (f(x+t)+f(x-t)) Psi_b(t) = base(t) * sin(alpha(2b+1)t/4)
    # with base = fsym * (4/(alpha pi)) sin(alpha t/4) / t^2.  Nodes are
    # interior, so t > 0 throughout.  The node at offset c_j of panel s + q,
    # s the start of a block, is t = (s + q + c_j) h, so
    #   cos(lambda t) = cos(lambda (s + c_j) h) cos(lambda q h)
    #                 - sin(lambda (s + c_j) h) sin(lambda q h)
    # and sin(alpha t/4) = sin(alpha (q + c_j) h/4), as alpha L h/4 = 2 pi.
    # The band sum over panels is then the imaginary part of
    # exp(i (2b+1) alpha c_j h / 4) times the conjugate of the FFT bin
    # (2b+1) mod L of the weighted base summed over the blocks.
    freqs = f.spectrum.freqs
    terms = f.term_values(xs)
    c = 0.5 + 0.5 * _GL_XI
    q = np.arange(L)
    wave = np.outer(freqs, q * h)
    wave = np.concatenate([np.cos(wave), np.sin(wave)])  # (2 entries, L)
    envelope = (4.0 / (alpha * math.pi)) * np.sin((0.25 * alpha * h) * np.add.outer(c, q))
    amplitudes = np.tile(2.0 * terms, 2)  # (x, 2 entries)
    blocks = np.arange(fold) * L
    folded = np.empty((GL_NODES, len(xs), L))
    weight_max = np.zeros((fold, L))
    for n in range(GL_NODES):
        starts = (blocks + c[n]) * h
        t = starts[:, None] + q * h
        weight = envelope[n] / (t * t)  # (block, L)
        np.maximum(weight_max, np.abs(weight), out=weight_max)
        phase = np.outer(starts, freqs)
        rotation = np.concatenate([np.cos(phase), -np.sin(phase)], axis=1)  # (block, 2 entries)
        folded[n] = amplitudes @ ((rotation.T @ weight) * wave)
    # 2 sum_j |term_j(x)| >= |f(x+t) + f(x-t)|: the budget's amplitude bound
    panel_env = 2.0 * np.abs(terms).sum(axis=1) * weight_max.sum()
    folded *= (0.5 * h * _GL_WT)[:, None, None]
    odd = 2 * np.array(bands) + 1
    bins = np.conj(np.fft.fft(folded, axis=2)[:, :, odd % L])
    shift = np.exp(1j * np.outer(c, odd) * (0.25 * alpha * h))
    quad = (bins * shift[:, None, :]).imag.sum(axis=0)

    values = quad + _exact_band_tail(f, terms, bands, T)
    nu = f.spectrum.max_frequency() + 0.5 * alpha * (np.array(bands) + 1.0)
    resolution = (0.5 * h * nu) ** (2 * GL_NODES)
    err_quad = _gl_error_constant(GL_NODES) * h * resolution * panel_env[:, None]
    err = err_quad * _QUAD_SAFETY + 1e-13 * (1.0 + np.abs(terms).sum(axis=1))[:, None]
    tol = np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(values))
    # first failure in band-major order
    failed = np.argwhere(~(err <= tol).T)
    if failed.size:
        j, i = failed[0]
        raise QuadratureToleranceError(float(values[i, j]), float(err[i, j]), float(tol[i, j]))

    # hits has at most one True per k, so the product is that term (or 0)
    return values[:, np.searchsorted(bands, plan)] - terms @ hits.T


def kernel_mass(alpha: float, k):
    """Numerical int_0^inf Psi_k(t) dt for a scalar k (a float) or an array
    of k (an array, from one table call).

    For f = 1/2 the kernel integral at any x is the mass itself, so this is
    the kernel table of the constant spectrum with gap alpha at x = 0.  The
    exact value is 1/2 for every alpha > 0, k >= 1.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    half = QuasiPeriodicFunction(Spectrum.from_cos_sin(alpha, [(0.0, 0.5, 0.0)]))
    masses = partial_sum_kernel_table(half, np.ravel(k), [0.0])[0]
    return float(masses[0]) if np.ndim(k) == 0 else masses.reshape(np.shape(k))
