import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apsum.kernels import (
    QuadratureToleranceError,
    kernel_mass,
    partial_sum_direct,
    partial_sum_kernel_table,
)
from apsum import kernels
from apsum.spectra import GL_NODES, Spectrum, SpectrumError, QuasiPeriodicFunction, _gl_panels

COS = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0)]))
SMOOTH = QuasiPeriodicFunction(
    Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0), (10.0, 0.1, 0.0)])
)
CONST = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(0.0, 1.0, 0.0)]))
# sqrt(2)*pi ~ 4.44 sits inside the open band (4.0, 4.5) at k = 8
IRRATIONAL = QuasiPeriodicFunction(
    Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0), (math.sqrt(2) * math.pi, 0.5, 0.0)])
)


class TestPartialSumDirect:
    def test_truncation(self):
        f = QuasiPeriodicFunction(
            Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0), (2.0, 1.0, 0.0)])
        )
        assert partial_sum_direct(f, 1.5, 0.0) == 1.0

    def test_full_sum(self):
        assert partial_sum_direct(SMOOTH, 10.0, 0.3) == SMOOTH(0.3)
        assert partial_sum_direct(SMOOTH, 99.0, 0.3) == SMOOTH(0.3)

    def test_gamma_zero_without_dc(self):
        assert partial_sum_direct(SMOOTH, 0.0, 1.7) == 0.0


def gap_free(f, k):
    """True iff the kernel table's band mask finds no frequency in the open
    band (alpha k/2, alpha (k+1)/2)."""
    return not kernels._band_hits(f, [k]).any()


class TestGapFree:
    def test_integer_ladder(self):
        f = QuasiPeriodicFunction(
            Spectrum.from_cos_sin(1.0, [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.0)])
        )
        # open band (0.5, 1.0) excludes the boundary frequency 1
        assert gap_free(f, 1)

    def test_band_with_interior_frequency(self):
        assert not gap_free(IRRATIONAL, 8)

    def test_dc_only_always_free(self):
        for k in range(0, 10):
            assert gap_free(CONST, k)


def truncation(alpha):
    """The end T of the kernel integral's node grid."""
    return kernels.TRUNCATION_PERIODS * (2.0 * math.pi / alpha)


def table_panels(alpha, numax):
    """The kernel table's panel count: PANELS_PER_OSCILLATION panels to a
    period of the fastest oscillation numax, rounded up to a multiple of
    TRUNCATION_PERIODS // 4."""
    fold = kernels.TRUNCATION_PERIODS // 4
    width = (2.0 * math.pi / numax) / kernels.PANELS_PER_OSCILLATION
    return fold * math.ceil(math.ceil(truncation(alpha) / width) / fold)


def band_plan(f, ks):
    """(band, index of the term in band k or None) for each k: a k whose open
    band holds a frequency reads band k + 1 less that term."""
    alpha = f.spectrum.alpha
    freqs = f.spectrum.freqs
    plans = []
    for k in ks:
        hit = np.flatnonzero((freqs > 0.5 * alpha * k) & (freqs < 0.5 * alpha * (k + 1)))
        plans.append((k, None) if hit.size == 0 else (k + 1, int(hit[0])))
    return plans


def reference_table(f, ks, xs):
    """The kernel table as one np.sin band array and one dot product per
    (band, x), with the beat tail summed term by term: the slow route the
    folded FFT must reproduce."""
    alpha = f.spectrum.alpha
    freqs = f.spectrum.freqs
    plans = band_plan(f, ks)
    bands = sorted({b for b, _ in plans})
    T = truncation(alpha)
    numax = freqs[-1] + 0.5 * alpha * (bands[-1] + 1)
    t, w = _gl_panels(0.0, T, table_panels(alpha, numax))
    envelope = (4.0 / (alpha * math.pi)) * np.sin(0.25 * alpha * t) / (t * t)
    terms = [f.term_values(x) for x in xs]
    wbase = [w * (f(x + t) + f(x - t)) * envelope for x in xs]
    value = {}
    for b in bands:
        osc = np.sin(0.25 * alpha * (2 * b + 1) * t)
        w1, w2 = 0.5 * alpha * b, 0.5 * alpha * (b + 1)
        for i, g in enumerate(terms):
            tail = 0.0
            for gv, lam in zip(g, freqs):
                c = kernels._cos_tail(
                    np.array([abs(lam - w1), lam + w1, abs(lam - w2), lam + w2]), T
                )
                tail += (2.0 * gv / (alpha * math.pi)) * (c[0] + c[1] - c[2] - c[3])
            value[i, b] = float(np.dot(wbase[i], osc)) + tail
    out = np.empty((len(xs), len(ks)))
    for i, g in enumerate(terms):
        for m, (b, idx) in enumerate(plans):
            out[i, m] = value[i, b] - (g[idx] if idx is not None else 0.0)
    return out


def error_budgets(f, ks, x):
    """The kernel table's error estimate at x for its lowest band, as a
    whole-grid pass forms it: the Gauss-Legendre term over the panel maxima
    of the weight envelope / t^2 times 2 sum_j |term_j(x)|, plus the
    rounding floor.  Returns (estimate, floor, sampled), sampled being the
    same budget over the panel maxima of the integrand itself, the estimate
    the amplitude bound replaced, kept as the oracle it must not undercut."""
    alpha = f.spectrum.alpha
    bands = [b for b, _ in band_plan(f, ks)]
    top = f.spectrum.max_frequency()
    n_panels = table_panels(alpha, top + 0.5 * alpha * (max(bands) + 1))
    T = truncation(alpha)
    h = T / n_panels
    t, _ = _gl_panels(0.0, T, n_panels)
    weight = (4.0 / (alpha * math.pi)) * np.sin(0.25 * alpha * t) / t**2
    nu = top + 0.5 * alpha * (min(bands) + 1)
    gl = kernels._gl_error_constant(GL_NODES) * h * (0.5 * h * nu) ** (2 * GL_NODES) * 16.0
    terms = f.term_values(x)
    floor = 1e-13 * (1.0 + np.abs(terms).sum())

    def panel_max(v):
        return np.abs(v).reshape(n_panels, GL_NODES).max(axis=1).sum()

    estimate = gl * 2.0 * np.abs(terms).sum() * panel_max(weight) + floor
    sampled = gl * panel_max((f(x + t) + f(x - t)) * weight) + floor
    return estimate, floor, sampled


@st.composite
def random_spectra(draw):
    """(f, sorted ks): frequencies alpha (m/2 + d), m stepping by at least 3
    half-gaps and d 0 (a band edge) or well inside a band, so every gap is
    over alpha and no frequency sits within rounding of an edge."""
    alpha = draw(st.floats(0.3, 3.0))
    steps = draw(st.lists(st.integers(3, 8), min_size=1, max_size=5))
    offsets = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.4]), min_size=5, max_size=5))
    coefs = draw(st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10))
    ks = draw(st.sets(st.integers(1, 30), min_size=1, max_size=8))
    m = np.cumsum(steps)
    terms = [
        (alpha * (0.5 * mi + d), c, s)
        for mi, d, c, s in zip(m, offsets, coefs[::2], coefs[1::2])
    ]
    if draw(st.booleans()):
        terms.insert(0, (0.0, coefs[-1], 0.0))
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(alpha, terms)), sorted(ks)


LACUNARY = QuasiPeriodicFunction(
    Spectrum.from_cos_sin(1.0, [(2.0**j, 0.5**j, 0.3 * 0.5**j) for j in range(6)])
)


# the many-term family: lambda_j = j for j = 1..64, |a_j| = j^-1.5, seeded
# phases; 64 entries at once through the wave table and the block rotations
_J = np.arange(1, 65)
_PHASES = np.random.default_rng(20121).uniform(0.0, 2.0 * math.pi, _J.size)
MANY_TERM = QuasiPeriodicFunction(
    Spectrum.from_cos_sin(
        1.0, zip(_J.tolist(), (_J**-1.5 * np.cos(_PHASES)).tolist(), (-(_J**-1.5) * np.sin(_PHASES)).tolist())
    )
)


def irrational_at(alpha):
    """IRRATIONAL's shape at gap alpha, with a DC term: sqrt(2) pi alpha
    sits inside the open band at k = 8, so the band shift runs."""
    terms = [(0.0, 0.3, 0.0), (alpha, 1.0, 0.2), (alpha * math.sqrt(2) * math.pi, 0.5, -0.4)]
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(alpha, terms))


def with_term_at(lam):
    """COS plus a second unit cos term at frequency lam."""
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0), (lam, 1.0, 0.0)]))


class TestKernelRoute:
    def test_constant_forces_normalization(self):
        got = partial_sum_kernel_table(CONST, [1], [17.2])[0, 0]
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_cos_matches_direct(self):
        got = partial_sum_kernel_table(COS, [4], [0.7])[0, 0]
        want = partial_sum_direct(COS, 2.0, 0.7)
        tol = max(kernels.QUAD_ABS_TOL, kernels.QUAD_REL_TOL * abs(want))
        assert got == pytest.approx(want, abs=tol)

    def test_band_shift_matches_direct(self):
        # k = 8 band holds sqrt(2)*pi, so the route goes through band 9
        ks = list(range(1, 65))
        got = partial_sum_kernel_table(IRRATIONAL, ks, [0.3])[0]
        want = np.array(
            [partial_sum_direct(IRRATIONAL, 0.5 * k, 0.3) for k in ks]
        )
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_smooth_sweep(self):
        ks = [1, 2, 3, 19, 20, 21, 40]
        got = partial_sum_kernel_table(SMOOTH, ks, [0.7])[0]
        want = np.array([partial_sum_direct(SMOOTH, 0.5 * k, 0.7) for k in ks])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            partial_sum_kernel_table(SMOOTH, [0], [0.0])

    def test_empty_k_list(self):
        table = partial_sum_kernel_table(SMOOTH, [], [0.0, 0.7, 2.9])
        assert table.shape == (3, 0)

    def test_frequency_within_cutoff_slack(self):
        # 100 + 5e-11 lies within the ladder's slack 1e-10 of the cutoff 100,
        # so the direct sum at k = 200 counts it, and so must the kernel table
        f = with_term_at(100.0 + 5e-11)
        assert partial_sum_direct(f, 100.0, 0.0) == 2.0
        assert partial_sum_kernel_table(f, [200], [0.0])[0, 0] == pytest.approx(2.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(5, 200),
        exponent=st.floats(-16.0, -9.0),
        side=st.sampled_from([1.0, -1.0]),
    )
    def test_frequency_near_a_cutoff_matches_direct(self, k, exponent, side):
        # a unit term at b (1 +- d), b = k / 2 on the ladder of gap 1: the
        # band mask and the direct ladder draw the cutoff with one slack
        f = with_term_at(0.5 * k * (1.0 + side * 10.0**exponent))
        ks, xs = [k - 1, k, k + 1], [0.0, 0.7]
        got = partial_sum_kernel_table(f, ks, xs)
        want = [[partial_sum_direct(f, 0.5 * j, x) for j in ks] for x in xs]
        assert np.abs(got - want).max() <= 1e-6

    @pytest.mark.parametrize(
        "freqs, match",
        [((1.1, 1.4), "holds 2 frequencies"), ((1.2, 1.7), "band above k=2 is not clean")],
    )
    def test_rejects_gap_violations(self, freqs, match):
        # built directly: validation would reject the gap of 0.3 or 0.5 < alpha
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(lam, 1.0, 0.0) for lam in freqs]))
        with pytest.raises(SpectrumError, match=match):
            partial_sum_kernel_table(f, [2], [0.0])

    def test_tolerance_error_carries_estimate(self, monkeypatch):
        # SMOOTH's grid is a multiple of the fold already; IRRATIONAL's
        # top frequency makes the table round its panel count up.  One panel
        # to an oscillation lifts the Gauss-Legendre term far over the
        # rounding floor, so that the pin sees the envelope
        monkeypatch.setattr(kernels, "PANELS_PER_OSCILLATION", 1)
        monkeypatch.setattr(kernels, "QUAD_ABS_TOL", 1e-18)
        monkeypatch.setattr(kernels, "QUAD_REL_TOL", 1e-18)
        for f, x in [(SMOOTH, 0.1), (IRRATIONAL, 0.4)]:
            with pytest.raises(QuadratureToleranceError) as err:
                partial_sum_kernel_table(f, [3], [x])
            assert math.isfinite(err.value.value)
            budget, floor, sampled = error_budgets(f, [3], x)
            assert budget > 1e3 * floor
            assert err.value.error_estimate == pytest.approx(budget, rel=1e-12)
            assert budget > sampled
            assert err.value.value == pytest.approx(
                reference_table(f, [3], [x])[0, 0], abs=1e-12
            )

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_refused(self, x):
        # a NaN row passed the guard, as NaN > tol is False
        with pytest.raises(ValueError, match=f"x must be finite, got {x!r}"):
            partial_sum_kernel_table(SMOOTH, [1, 2], [0.3, x])

    def test_nan_budget_fails(self):
        # a NaN coefficient (built directly: validation refuses it) makes
        # every value and error estimate NaN, which the guard must not pass
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(1.0, math.nan, 0.0)]))
        with pytest.raises(QuadratureToleranceError) as err:
            partial_sum_kernel_table(f, [2], [0.3])
        assert math.isnan(err.value.error_estimate)

    @settings(max_examples=15, deadline=None)
    @given(case=random_spectra())
    def test_estimate_never_below_sampled_budget(self, case):
        # the amplitude bound 2 sum_j |term_j(x)| >= |f(x+t) + f(x-t)| can
        # only raise the budget over the sampled integrand's; one panel to an
        # oscillation puts the Gauss-Legendre term over the rounding floor
        f, ks = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "PANELS_PER_OSCILLATION", 1)
            mp.setattr(kernels, "QUAD_ABS_TOL", 0.0)
            mp.setattr(kernels, "QUAD_REL_TOL", 0.0)
            for x in (0.0, 1.3):
                with pytest.raises(QuadratureToleranceError) as err:
                    partial_sum_kernel_table(f, ks, [x])
                budget, _, sampled = error_budgets(f, ks, x)
                assert err.value.error_estimate == pytest.approx(budget, rel=1e-12)
                assert err.value.error_estimate >= sampled * (1.0 - 1e-12)


class TestKernelTableOracle:
    @pytest.mark.parametrize(
        "f, ks",
        [
            (IRRATIONAL, list(range(1, 65))),  # band shift at k = 8
            (SMOOTH, [1, 2, 3, 19, 20, 21, 40]),
            (LACUNARY, [1, 2, 4, 8, 16, 32, 64, 65, 66]),
            (COS, list(range(1, 101))),
            (irrational_at(0.5), list(range(1, 41))),
            (irrational_at(3.0), list(range(1, 41))),
            (MANY_TERM, list(range(1, 65))),
        ],
        ids=["irrational", "smooth", "lacunary", "cos-100", "alpha-0.5", "alpha-3.0", "many-term"],
    )
    def test_matches_per_band_loop(self, f, ks):
        xs = [0.0, 0.7, 2.9]
        got = partial_sum_kernel_table(f, ks, xs)
        want = reference_table(f, ks, xs)
        bound = 1e-12 * (1.0 + f.spectrum.tails[0])
        assert np.abs(got - want).max() <= bound

    def test_bins_wrap_past_fold_length(self, monkeypatch):
        # half a panel to an oscillation makes the fold length L about
        # 2 numax / alpha = 103 here, so bands from 51 up read bin
        # (2b+1) - L; a loose budget lets the coarse grid through, and the
        # reference sums over the same nodes
        monkeypatch.setattr(kernels, "PANELS_PER_OSCILLATION", 0.5)
        monkeypatch.setattr(kernels, "QUAD_REL_TOL", 1.0)
        monkeypatch.setattr(kernels, "QUAD_ABS_TOL", 1e6)
        ks = list(range(1, 101))
        fold_length = table_panels(1.0, 1.0 + 0.5 * 101) // (kernels.TRUNCATION_PERIODS // 4)
        assert 2 * ks[-1] + 1 > fold_length
        xs = [0.0, 0.7]
        got = partial_sum_kernel_table(COS, ks, xs)
        want = reference_table(COS, ks, xs)
        assert np.abs(got - want).max() <= 1e-12 * (1.0 + COS.spectrum.tails[0])

    @settings(max_examples=15, deadline=None)
    @given(case=random_spectra())
    def test_random_spectra_match_reference(self, case):
        f, ks = case
        xs = [0.0, 1.3]
        got = partial_sum_kernel_table(f, ks, xs)
        want = reference_table(f, ks, xs)
        assert np.abs(got - want).max() <= 1e-12 * (1.0 + f.spectrum.tails[0])

    @pytest.mark.parametrize("f", [IRRATIONAL, MANY_TERM], ids=["irrational", "many-term"])
    def test_rows_do_not_depend_on_other_x(self, f):
        # the blocks are contracted once for all x, and each x enters only
        # through its own row of term values: a row is that x's one-x table,
        # and permuting xs permutes the rows
        ks = list(range(1, 65))
        xs = [0.0, 0.7, 2.9, -1.3]
        table = partial_sum_kernel_table(f, ks, xs)
        bound = 1e-14 * (1.0 + f.spectrum.tails[0])
        for x, row in zip(xs, table):
            assert np.abs(row - partial_sum_kernel_table(f, ks, [x])[0]).max() <= bound
        order = [2, 0, 3, 1]
        permuted = partial_sum_kernel_table(f, ks, [xs[i] for i in order])
        assert np.abs(permuted - table[order]).max() <= bound


def psi_k(alpha, k, t):
    """The gap-ladder band kernel Psi_k(t) of the module docstring, as the
    product of two sincs."""
    lam, eta = 0.5 * alpha * k, 0.5 * alpha * (k + 1)
    a, b = 0.5 * (eta - lam), 0.5 * (eta + lam)
    return ((eta + lam) / (2.0 * math.pi)) * np.sinc(a * t / math.pi) * np.sinc(b * t / math.pi)


class TestPsiKOracle:
    """The local ``psi_k`` that ``reference_mass`` integrates, checked
    against the closed forms of the ``kernels`` module docstring."""

    def test_zero_limit(self):
        alpha, k = 1.3, 7
        assert psi_k(alpha, k, 0.0) == pytest.approx(alpha * (2 * k + 1) / (4 * math.pi), rel=1e-15)

    def test_first_sine_zero(self):
        # sin(alpha t/4) = 0 at t = 4 pi/alpha
        alpha = 0.7
        assert psi_k(alpha, 3, 4.0 * math.pi / alpha) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.1, 5.0), k=st.integers(1, 80), t=st.floats(1e-3, 50.0))
    def test_matches_band_kernel(self, alpha, k, t):
        # Psi_{l,e} with l = alpha k/2, e = alpha (k+1)/2
        lam, eta = 0.5 * alpha * k, 0.5 * alpha * (k + 1)
        want = (
            2.0 * math.sin(0.5 * (eta - lam) * t) * math.sin(0.5 * (eta + lam) * t)
            / (math.pi * (eta - lam) * t * t)
        )
        assert psi_k(alpha, k, t) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.1, 5.0), k=st.integers(1, 80), t=st.floats(1e-3, 50.0))
    def test_matches_folded_product(self, alpha, k, t):
        # the factorization partial_sum_kernel_table folds: a band-free
        # envelope sin(alpha t/4)/t^2 times the band wave sin(alpha(2k+1)t/4)
        want = (
            4.0 * math.sin(0.25 * alpha * t) * math.sin(0.25 * alpha * (2 * k + 1) * t)
            / (alpha * math.pi * t * t)
        )
        assert psi_k(alpha, k, t) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.1, 5.0), k=st.integers(1, 80), t=st.floats(0.5, 50.0))
    def test_matches_cosine_difference(self, alpha, k, t):
        # the beat form behind _exact_band_tail; t >= 0.5 keeps the
        # cancellation of the two cosines small
        want = (
            2.0 * (math.cos(0.5 * alpha * k * t) - math.cos(0.5 * alpha * (k + 1) * t))
            / (alpha * math.pi * t * t)
        )
        assert psi_k(alpha, k, t) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.1, 5.0), k=st.integers(1, 80), t=st.floats(-50.0, 50.0))
    def test_even_in_t(self, alpha, k, t):
        assert psi_k(alpha, k, t) == psi_k(alpha, k, -t)


def reference_mass(alpha, k):
    """Per-k quadrature oracle: Psi_k on a grid sized for band k alone, plus
    the exact tail past the truncation point."""
    T = truncation(alpha)
    w1, w2 = 0.5 * alpha * k, 0.5 * alpha * (k + 1)
    width = (2.0 * math.pi / (w1 + w2)) / kernels.PANELS_PER_OSCILLATION
    t, w = _gl_panels(0.0, T, max(1, int(math.ceil(T / width))))
    c = kernels._cos_tail(np.array([w1, w2]), T)
    return float(np.dot(w, psi_k(alpha, k, t))) + (2.0 / (alpha * math.pi)) * (c[0] - c[1])


class TestKernelMass:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 9, 33])
    def test_half(self, alpha, k):
        got = kernel_mass(alpha, k)
        assert isinstance(got, float)
        assert got == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_table_matches_per_k_quadrature(self, alpha):
        ks = np.arange(1, 65)
        got = kernel_mass(alpha, ks)
        assert got.shape == ks.shape
        want = [reference_mass(alpha, int(k)) for k in ks]
        assert np.abs(got - want).max() <= 1e-13
        grid = kernel_mass(alpha, ks[:6].reshape(2, 3))
        assert grid.shape == (2, 3)
        assert grid.ravel().tolist() == kernel_mass(alpha, ks[:6]).tolist()

    def test_empty_k(self):
        for ks in ([], np.zeros((2, 0), dtype=int)):
            got = kernel_mass(1.0, ks)
            assert isinstance(got, np.ndarray) and got.shape == np.shape(ks)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            kernel_mass(0.0, 3)
        with pytest.raises(ValueError):
            kernel_mass(1.0, 0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
    def test_non_finite_alpha_refused(self, alpha):
        # inf divided by zero in the panel count, NaN passed alpha <= 0
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            kernel_mass(alpha, 3)

    @pytest.mark.parametrize("k", [2.5, np.array([1.0, 2.5]), math.inf, math.nan])
    def test_non_integral_k_refused(self, k):
        # int() read k = 2.5 as band 2
        with pytest.raises(ValueError, match="must be an integer"):
            kernel_mass(1.0, k)

    def test_table_refuses_non_integral_k(self):
        # k = 2.7 gave band 2's cutoff sum; an integral float is that integer
        with pytest.raises(ValueError, match="must be an integer, got 2.7"):
            partial_sum_kernel_table(SMOOTH, [1, 2.7], [0.3])
        got = partial_sum_kernel_table(SMOOTH, [1.0, 2.0], [0.3])
        assert got.tolist() == partial_sum_kernel_table(SMOOTH, [1, 2], [0.3]).tolist()
