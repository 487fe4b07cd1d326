import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from apsum.measures import (
    FIT_DELTAS,
    OmegaClassReport,
    PowerModulus,
    SamplePlan,
    TableModulus,
    T_LATTICE,
    WindowGrid,
    check_eq7,
    fit_class_majorant,
    majorant_from_dict,
    majorant_to_dict,
    modulus_omega,
    moduli,
    phi_average,
    resolve_span,
    stepanov_norm,
)
from apsum import measures
from apsum.experiment import ExperimentConfig, builtin_spectra, run
from apsum.spectra import QuasiPeriodicFunction, Spectrum, SpectrumEntry, _gl_panels, _lattice, power_mean

from conftest import scaled, spy_searches, translate_difference

COS = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0)]))
CONST = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(0.0, 1.0, 0.0)]))
SMOOTH = QuasiPeriodicFunction(
    Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0), (10.0, 0.1, 0.0)])
)


def float_gcd_span(f, grid):
    """The window span by the former rule, the oracle of ``resolve_span`` on
    integer frequencies: a float Euclid loop over the positive frequencies
    at tolerance 1e-9 of the largest, then 2 pi over its step, capped at 64
    periods of the slowest (the cap too when the step falls below the
    tolerance)."""
    if grid.u_span is not None:
        return grid.u_span
    pos = [lam for lam in f.spectrum.freqs.tolist() if lam > 0.0]
    if not pos:
        return math.pi
    cap = 64.0 * 2.0 * math.pi / min(pos)
    tol = 1e-9 * max(pos)
    g = pos[0]
    for b in pos[1:]:
        a = g
        while b > tol:
            a, b = b, math.fmod(a, b)
        g = a
        if g <= tol:
            return cap
    return min(2.0 * math.pi / g, cap)


def random_function(seed, max_terms=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_terms + 1))
    alpha = float(rng.uniform(0.4, 1.2))
    lams = np.cumsum(rng.uniform(alpha, 2.0 * alpha, n)) + alpha
    terms = [
        (float(l), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for l in lams
    ]
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(alpha, terms))


def translate(f, a):
    """The translate x -> f(x + a): each cos/sin pair rotated by l a."""
    spec = f.spectrum
    c, s = spec.coefs.T
    cos, sin = np.cos(spec.freqs * a), np.sin(spec.freqs * a)
    terms = zip(spec.freqs.tolist(), (c * cos + s * sin).tolist(), (s * cos - c * sin).tolist())
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(spec.alpha, terms))


def periodic_function(seed, max_terms=4):
    """Integer frequencies up to 8: 2 pi is a period, so every bracket of
    one grid step around a grid peak holds its local maximum inside."""
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.choice(np.arange(1, 9), int(rng.integers(1, max_terms + 1)), replace=False))
    terms = [(float(l), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for l in lams]
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, terms))


class TestMajorants:
    def test_power_family(self):
        w = PowerModulus(2.0, 0.5)
        assert w(0.0) == 0.0
        assert w(4.0) == pytest.approx(4.0)

    def test_power_cap(self):
        w = PowerModulus(1.0, 1.0, cap=2.0)
        assert w(1.5) == 1.5
        assert w(3.0) == 2.0

    def test_power_validation(self):
        with pytest.raises(ValueError):
            PowerModulus(1.0, 1.5)
        with pytest.raises(ValueError):
            PowerModulus(-1.0, 1.0)

    def test_table_eval_and_extension(self):
        w = TableModulus(((0.0, 0.0), (1.0, 1.0), (2.0, 1.5)))
        assert w(0.5) == pytest.approx(0.5)
        assert w(5.0) == pytest.approx(1.5)

    def test_table_subadditivity_rejected(self):
        # convex growth violates w(d1+d2) <= w(d1)+w(d2)
        with pytest.raises(ValueError):
            TableModulus(((0.0, 0.0), (1.0, 0.1), (2.0, 1.0)))

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=12),
        rises=st.lists(st.floats(0.0, 1.5), min_size=12, max_size=12),
    )
    def test_table_check_matches_pair_loop(self, steps, rises):
        ds = np.cumsum([0.0] + steps).tolist()
        ws = np.cumsum([0.0] + rises[: len(steps)]).tolist()
        knots = tuple(zip(ds, ws))

        def w(d):
            return np.interp(d, ds, ws)

        # the pair loop the vectorised check replaced: first offending pair
        want = None
        for i, di in enumerate(ds[1:], 1):
            for dj in ds[1 : i + 1]:
                if want is None and w(di + dj) > w(di) + w(dj) + 1e-12:
                    want = f"not subadditive at knots ({di:.6g}, {dj:.6g})"
        if want is None:
            assert TableModulus(knots).knots == knots
        else:
            with pytest.raises(ValueError) as err:
                TableModulus(knots)
            assert str(err.value) == want

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=12),
        slopes=st.lists(st.floats(0.0, 10.0), min_size=12, max_size=12),
        factor=st.one_of(st.just(0.0), st.floats(1e-6, 100.0)),
    )
    def test_scaled_equals_table_of_scaled_knots(self, steps, slopes, factor):
        # a concave table (slopes sorted down) is subadditive; the unchecked
        # copy equals the table built, and checked, from the scaled knots
        ds = np.cumsum([0.0] + steps)
        ws = np.cumsum([0.0] + (np.diff(ds) * sorted(slopes, reverse=True)[: len(steps)]).tolist())
        table = TableModulus(tuple(zip(ds.tolist(), ws.tolist())))
        got = table.scaled(factor)
        want = TableModulus(tuple((d, w * factor) for d, w in table.knots))
        assert got.knots == want.knots
        at = np.linspace(0.0, ds[-1] + 1.0, 64)
        assert got(at).tolist() == want(at).tolist()

    @pytest.mark.parametrize("factor", [-1.0, -1e-300, math.nan, math.inf])
    def test_scaled_rejects_bad_factor(self, factor):
        with pytest.raises(ValueError, match="factor"):
            TableModulus(((0.0, 0.0), (1.0, 1.0))).scaled(factor)

    def test_table_must_start_at_origin(self):
        with pytest.raises(ValueError):
            TableModulus(((0.5, 0.1), (1.0, 0.2)))

    def test_scaling(self):
        w = PowerModulus(1.0, 1.0).scaled(3.0)
        assert w(2.0) == pytest.approx(6.0)

    def test_dict_round_trip(self):
        for w in (PowerModulus(1.5, 0.5, cap=3.0), TableModulus(((0.0, 0.0), (1.0, 2.0)))):
            again = majorant_from_dict(majorant_to_dict(w))
            assert type(again) is type(w)
            for d in (0.0, 0.7, 2.5):
                assert again(d) == pytest.approx(w(d))


class TestStepanovNorm:
    def test_constant(self):
        for p in (1.5, 2.0, 4.0, math.inf):
            assert stepanov_norm(CONST, p) == pytest.approx(1.0, abs=1e-9)

    def test_cos_sup(self):
        assert stepanov_norm(COS, math.inf) == pytest.approx(1.0, abs=1e-9)

    def test_cos_quadratic_mean(self):
        # every pi-window of cos^2 integrates to pi/2 exactly
        assert stepanov_norm(COS, 2.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            stepanov_norm(COS, 1.0)

    @pytest.mark.parametrize(
        "freqs, former",
        [
            # a near-lattice: Euclid's step 1 misses 3.0000000001 by 1e-10,
            # below its tolerance, but the refit step misses 1 by 3e-11
            ((1.0, 3.0000000001), 2.0 * math.pi),
            # integers whose gcd 1 lies below 1e-9 of 2e9: Euclid ends on the
            # step 2e9, which rounds 1 to m = 0
            ((1.0, 2e9), 2.0 * math.pi / 2e9),
        ],
    )
    def test_span_without_a_lattice_is_the_cap(self, freqs, former):
        # no lattice, so the cap, where the former rule took Euclid's step
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(lam, 1.0, 0.0) for lam in freqs]))
        assert f.spectrum.lattice is None
        assert float_gcd_span(f, WindowGrid()) == former
        assert resolve_span(f, WindowGrid()) == 64.0 * 2.0 * math.pi

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.lists(st.integers(1, 5000), min_size=1, max_size=30, unique=True),
        gcd=st.integers(1, 1000),
        dc=st.booleans(),
    )
    def test_span_is_the_former_rule_on_integer_frequencies(self, k, gcd, dc):
        terms = [(float(gcd * j), 1.0, 0.0) for j in [0] * dc + k]
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, terms))
        assert resolve_span(f, WindowGrid()) == float_gcd_span(f, WindowGrid())

    @pytest.mark.parametrize("name", ["smooth", "lacunary", "irrational", "constant"])
    def test_span_of_builtins_is_the_former_rule(self, name):
        f = builtin_spectra(name)
        for grid in (WindowGrid(), WindowGrid(u_span=3.5)):
            assert resolve_span(f, grid) == float_gcd_span(f, grid)

    def test_span_cap_when_slow_frequencies_have_no_common_step(self):
        # both slowest frequencies lie below 1e-9 of the fastest, so their gcd
        # already counts as none: the span is 64 periods of the slowest, not
        # the 2 pi that a gcd of 1 with the fastest would give
        terms = [(lam, 1.0, 0.0) for lam in (1e-12, 2e-12, 1.0)]
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(1e-12, terms))
        assert resolve_span(f, WindowGrid()) == 64.0 * 2.0 * math.pi / 1e-12

    def test_monotone_in_p(self):
        for seed in (3, 14, 15):
            f = random_function(seed)
            ps = (1.5, 2.0, 4.0, math.inf)
            norms = [stepanov_norm(f, p) for p in ps]
            for a, b in zip(norms, norms[1:]):
                assert a <= b + 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        f = random_function(9)
        base = stepanov_norm(f, 2.0)
        for shift in rng.uniform(-3.0, 3.0, 4):
            assert stepanov_norm(translate(f, float(shift)), 2.0) == pytest.approx(
                base, abs=1e-3
            )


def per_delta_omega(f, delta, p, grid=None):
    """The per-delta lattice loop: max of the windowed norms over the
    lattice shifts up to delta plus delta itself when off the lattice."""
    if delta == 0.0:
        return 0.0
    steps = int(delta / T_LATTICE)
    ts = [i * T_LATTICE for i in range(1, steps + 1)]
    if not ts or ts[-1] < delta:
        ts.append(delta)
    return max(stepanov_norm(translate_difference(f, t), p, grid) for t in ts)


class TestModulusOmega:
    def test_zero_delta(self):
        assert modulus_omega(SMOOTH, 0.0, 2.0) == 0.0

    @pytest.mark.parametrize("p", [2.0, 1.5, math.inf])
    def test_ladder_matches_per_delta_loop(self, p):
        f = random_function(33)
        grid = WindowGrid(u_samples=24, refine=False)
        # lattice-aligned, below one lattice step, off-lattice, 0, repeated
        deltas = [math.pi / 2, 0.05, 1.0, 0.0, math.pi / 4, 1.0, 2.5, 0.3, 3 * T_LATTICE]
        want = [per_delta_omega(f, d, p, grid) for d in deltas]
        got = modulus_omega(f, deltas, p, grid)
        assert got.tolist() == want
        scalar = modulus_omega(f, deltas[0], p, grid)
        assert type(scalar) is float and scalar == want[0]
        grid2d = modulus_omega(f, np.reshape(deltas[:8], (2, 4)), p, grid)
        assert grid2d.shape == (2, 4) and grid2d.ravel().tolist() == want[:8]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        steps=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        offs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    def test_ladder_random_deltas(self, seed, steps, offs):
        f = random_function(seed)
        grid = WindowGrid(u_samples=8, refine=False)
        deltas = [i * T_LATTICE for i in steps] + [o * 40 * T_LATTICE for o in offs]
        deltas += deltas[:2]
        want = [per_delta_omega(f, d, 2.0, grid) for d in deltas]
        assert modulus_omega(f, deltas, 2.0, grid).tolist() == want

    @pytest.mark.parametrize("delta", [-0.1, math.inf, math.nan, [0.2, -1.0]])
    def test_bad_delta(self, delta):
        with pytest.raises(ValueError):
            modulus_omega(SMOOTH, delta, 2.0)

    @pytest.mark.parametrize("delta", [0.1, 1.0, 3.0])
    def test_cos_sup_closed_form(self, delta):
        got = modulus_omega(COS, delta, math.inf)
        assert got == pytest.approx(2.0 * math.sin(delta / 2.0), abs=1e-3)

    def test_monotone_on_lattice(self):
        f = random_function(21)
        deltas = [i * T_LATTICE for i in (1, 2, 4, 7, 12, 20)]
        vals = [modulus_omega(f, d, 2.0) for d in deltas]
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-12


def old_layout_means(lams, cos_c, sin_c, gram, u, absolute=False):
    """p = 2 window means in the former layout, the 2N cos/sin coefficient
    axis last: k shaped (..., 2N), ``((k @ gram) * k).sum(axis=-1)``.  The
    oracle of the window norm's u-last form; cos_c and sin_c broadcast
    against u's shape plus (N,).  With ``absolute``, the form of |k| in
    |gram|, the scale of the rounding of any order of its sums."""
    lu = np.multiply.outer(u, lams)
    c, s = np.cos(lu), np.sin(lu)
    k = np.concatenate([cos_c * c + sin_c * s, sin_c * c - cos_c * s], axis=-1)
    if absolute:
        k, gram = np.abs(k), np.abs(gram)
    return ((k @ gram) * k).sum(axis=-1)


def two_product(a, b):
    """a b as hi + lo with hi = fl(a b) and lo its rounding error, exactly
    (Dekker's product; the factors split into 26-bit halves)."""
    hi = a * b

    def split(x):
        c = 134217729.0 * x  # 2^27 + 1
        top = c - (c - x)
        return top, x - top

    (ah, al), (bh, bl) = split(a), split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def exact_means(lams, unit, length, u):
    """p = 2 window means of the unit-scaled rows (L, N, 2) at points u shaped
    (L, n), or (1, n) for shared points, in the former layout with every
    phase l u taken exactly: cos and sin of fl(l u) turned by its rounding
    error.  Within 4e-15 of each lane's largest mean of an mpmath
    evaluation at 40 digits, at the lag route's worst points of 1100 random
    draws like window_rows' (frequencies to 320, |u| to 61); the two routes,
    which round their phases, parted from it by up to 1.1e-14 (lag) and
    1.8e-13 (Gram) over 2400 such draws."""
    lu = np.broadcast_to(u[..., None], u.shape + lams.shape)
    hi, lo = two_product(lu, np.broadcast_to(lams, lu.shape))
    ch, sh = np.cos(hi), np.sin(hi)
    c, s = ch - lo * sh, sh + lo * ch
    cc, sc = unit[:, None, :, 0], unit[:, None, :, 1]
    k = np.concatenate([cc * c + sc * s, sc * c - cc * s], axis=-1)
    return ((k @ measures._trig_gram(lams, length)) * k).sum(axis=-1)


def refine_block_norm(f, p, grid):
    """The windowed norm with its own grid, window rule and refine block per
    p, as before the shared sampled-sup routine: the oracle for it."""
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
    if p == 2.0:
        # the code's own means on the route it takes, summed as the code sums
        # them: a grid peak one ulp above the code's sup would fail
        # within_sup's exact lower bound
        lanes = measures._window_means(f.spectrum.freqs, f.spectrum.coefs[None], grid.window_length, f.spectrum.lattice)

        def window_means(u):
            return lanes(u[None, :])[0]

    else:
        offs, wts = _gl_panels(0.0, grid.window_length, measures.WINDOW_PANELS)

        def window_means(u):
            return power_mean(wts / grid.window_length, f(np.add.outer(u, offs)), p)

    u = np.linspace(0.0, span, grid.u_samples, endpoint=False)
    means = window_means(u)
    best = int(np.argmax(means))
    top = float(means[best])
    if grid.refine:
        h = span / grid.u_samples
        res = minimize_scalar(
            lambda s: -float(window_means(np.array([s]))[0]),
            bounds=(u[best] - h, u[best] + h),
            method="bounded",
            options={"xatol": 1e-9},
        )
        top = max(top, float(-res.fun))
    if p != 2.0:
        return top  # a rooted power_mean
    # numpy's power, as the code under test takes its roots: the C
    # library's pow can differ from it in the last bit
    return float((np.maximum([top], 0.0) ** 0.5)[0])


def refine_block_sup(g, delta, refine=True):
    """sup of |g| over [0, delta] with the former moduli refine block: the
    largest of 512 grid values, raised by a bounded search one step around."""
    t = np.linspace(0.0, delta, 512)
    vals = np.abs(g(t))
    best = int(np.argmax(vals))
    peak = float(vals[best])
    if not refine:
        return peak
    h = delta / 511
    res = minimize_scalar(
        lambda s: -abs(g(s)),
        bounds=(max(0.0, t[best] - h), min(delta, t[best] + h)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return max(peak, float(-res.fun))


def with_constant(f, const):
    terms = [(e.freq, e.cos_coef, e.sin_coef) for e in f.spectrum.entries]
    return QuasiPeriodicFunction(
        Spectrum.from_cos_sin(f.spectrum.alpha, [(0.0, const, 0.0)] + terms)
    )


def oracle_norms(fs, p, grid):
    """The oracle's refined sup of the largest norm of the functions fs,
    and its unrefined grid peak."""
    return tuple(
        max(refine_block_norm(g, p, gr) for g in fs) for gr in (grid, replace(grid, refine=False))
    )


# The fixed window rule's error ripples in u, so at finite p other than 2
# the window mean has micro-maxima, and two searches of one bracket can stop
# at different ones: over 3000 periodic_function draws on 40-sample grids
# at p = 1.5 the golden-section and Brent sups differed by up to 3.6e-4
# relative.  At p = 2 and inf the means are smooth.
RIPPLE_RTOL = 5e-4


def near_oracle(got, oracle, peak, p):
    """A refined sup is no lower than the oracle's unrefined grid peak and
    agrees with scipy's bounded search: to 1e-13 relative at p = 2 and inf,
    to ``RIPPLE_RTOL`` at other finite p."""
    rtol = 1e-13 if p in (2.0, math.inf) else RIPPLE_RTOL
    return got >= peak and abs(got - oracle) <= rtol * max(1.0, abs(oracle))


def resolved_sup(fs, p, grid):
    """The largest sup of the window means of the functions fs over every
    start a search on grid can reach, [-h, span + h] for its step h: the
    oracle's refined sup on a grid whose steps are short beside the
    oscillations of a random_function's window means (at most 64 periods
    of the slowest frequency over 2^16 to 2^19 samples; 2^13 at finite
    p other than 2, whose means are slow to evaluate)."""
    top = 0.0
    for g in fs:
        span = resolve_span(g, grid)
        h = span / (max(8 * grid.u_samples, 2048) if math.isinf(p) else grid.u_samples)
        samples = 1 << (16 if p in (2.0, math.inf) else 13)
        fine = replace(grid, u_samples=samples, u_span=span + 2 * h)
        top = max(top, refine_block_norm(translate(g, -h), p, fine))
    return top


def within_sup(got, fs, p, grid):
    """On a coarse grid one step can hold several local maxima of a window
    mean, and the code's search and the oracle's may stop at different
    ones.  Both must still lie between the oracle's grid peak and the sup
    over the starts they can reach, so they differ by at most that spread.
    The sup is ``resolved_sup``, trusted to 1e-4 relative (its own sampling
    error) plus, at finite p other than 2, ``RIPPLE_RTOL`` (its search may
    stop at a lower micro-maximum)."""
    oracle, peak = oracle_norms(fs, p, grid)
    slack = 1e-4 if p in (2.0, math.inf) else 1e-4 + RIPPLE_RTOL
    top = resolved_sup(fs, p, grid) * (1.0 + slack)
    return peak <= min(got, oracle) and max(got, oracle) <= top


def agrees(got, fs, p, grid, periodic):
    """near_oracle for a periodic_function, whose brackets hold one maximum,
    else within_sup."""
    if periodic:
        return near_oracle(got, *oracle_norms(fs, p, grid), p)
    return within_sup(got, fs, p, grid)


class TestSampledSup:
    """Every refined sup goes through one routine; it must agree with the
    per-site scipy refine blocks it replaced where a bracket holds one
    maximum (periodic_function on a grid over its period), and stay between
    the grid peak and the sup where it may hold several (random_function on
    a grid over 64 periods)."""

    @pytest.mark.parametrize("p", [1.5, 2.0, math.inf])
    def test_default_grid_matches_refine_blocks(self, p):
        for f in (SMOOTH, CONST, translate_difference(SMOOTH, 0.4)):
            assert near_oracle(stepanov_norm(f, p), *oracle_norms([f], p, WindowGrid()), p)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        p=st.sampled_from([1.5, 2.0, math.inf]),
        t=st.floats(0.01, 3.0),
        const=st.floats(-1.0, 1.0),
    )
    # the oracle's p = 2 grid peak sat one ulp above the code's sup while it
    # summed each window mean in the former layout's order
    @example(seed=0, p=2.0, t=1.4746880921955017, const=0.0)
    def test_stepanov_norm_matches_refine_blocks(self, seed, p, t, const):
        grid = WindowGrid(u_samples=40)
        for periodic in (True, False):
            f = (periodic_function if periodic else random_function)(seed)
            for g in (f, with_constant(f, const), translate_difference(f, t)):
                assert agrees(stepanov_norm(g, p, grid), [g], p, grid, periodic)

    @pytest.mark.parametrize("p", [1.5, 2.0, math.inf])
    @pytest.mark.parametrize("const", [None, 0.8])
    def test_refined_omega_matches_per_shift_blocks(self, p, const):
        grid = WindowGrid(u_samples=24)
        deltas = [0.05, 0.3, 4 * T_LATTICE, 1.0]
        for periodic in (True, False):
            f = (periodic_function if periodic else random_function)(71)
            if const is not None:
                # the constant term drops out of every translate difference
                f = with_constant(f, const)
            got = modulus_omega(f, deltas, p, grid).tolist()
            for d, value in zip(deltas, got):
                ts = [i * T_LATTICE for i in range(1, int(d / T_LATTICE) + 1)]
                ts += [] if ts and ts[-1] >= d else [d]
                diffs = [translate_difference(f, t) for t in ts]
                assert agrees(value, diffs, p, grid, periodic)

    @pytest.mark.parametrize("p", [1.5, 2.0, math.inf])
    def test_irrational_default_grid_within_sup(self, p):
        # no common period: the default grid spans 64 periods of the slowest
        # frequency, and at these shifts a step holds several maxima of the
        # window mean, where the two searches stop at different ones
        f = builtin_spectra("irrational")
        for g in (f, translate_difference(f, 0.3), translate_difference(f, 0.6)):
            assert within_sup(stepanov_norm(g, p), [g], p, WindowGrid())

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        x=st.floats(0.0, 2.0 * math.pi),
        delta=st.floats(0.05, 3.0),
        gamma=st.floats(-2.0, 2.0),
    )
    def test_inf_moduli_match_refine_block(self, seed, x, delta, gamma):
        f = random_function(seed)

        def phi(t):
            return f.second_difference(x, t)

        def diff(t):
            return phi(t) - phi(t + gamma)

        point, shifted = moduli(f, x, [delta], [gamma], math.inf)
        for g, got in ((phi, point[0]), (diff, shifted[0, 0])):
            oracle, peak = refine_block_sup(g, delta), refine_block_sup(g, delta, False)
            assert near_oracle(got, oracle, peak, math.inf)

    def test_inf_shifted_sup_clipped_at_zero(self):
        # |phi_0(t) - phi_0(t - 1)| for cos falls from t = 0 on, and grows
        # for t < 0: the search must stay inside [0, delta]
        def diff(t):
            return COS.second_difference(0.0, t) - COS.second_difference(0.0, t - 1.0)

        got = moduli(COS, 0.0, [1.0], [-1.0], math.inf)[1][0, 0]
        assert got == refine_block_sup(diff, 1.0)
        assert got == pytest.approx(2.0 - 2.0 * math.cos(1.0), abs=1e-12)


@st.composite
def window_rows(draw):
    """Frequencies of N = 1..40 terms, and L = 1..64 cos/sin coefficient
    rows shaped (L, N, 2): uniform in [-1, 1], each row scaled by 2**e,
    e in {-300, 0, 300}, and no sine coefficient at frequency 0, as in a
    spectrum.  The frequencies have gaps in [0.25, 8] (the Gram route from
    N = 5 on) or lie on a lattice fl((a + j) g) with integers a in [0, 8] and
    g in 1, 2, 3 or the non-dyadic 0.1, 0.3, 0.7 (the lag route)."""
    n, lanes = draw(st.integers(1, 40)), draw(st.integers(1, 64))
    if draw(st.booleans()):
        lams = (draw(st.integers(0, 8)) + np.arange(n)) * draw(st.sampled_from([1.0, 2.0, 3.0, 0.1, 0.3, 0.7]))
    else:
        lams = np.cumsum(draw(st.lists(st.floats(0.25, 8.0), min_size=n, max_size=n)))
    exps = draw(st.lists(st.sampled_from([-300, 0, 300]), min_size=lanes, max_size=lanes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coefs = np.ldexp(rng.uniform(-1.0, 1.0, (lanes, n, 2)), np.array(exps)[:, None, None])
    coefs[:, lams == 0.0, 1] = 0.0
    return lams, coefs


def lag_route(lams):
    """Whether the p = 2 window means of these frequencies take the lag route."""
    return measures._lag_route(lams, measures._pair_lags(lams, _lattice(lams)))


def window_points(lanes, u_samples, span, points):
    """A shared grid of u_samples points over [0, span), shaped (1, n), and
    one point per lane in [-1, span + 1], shaped (L, 1)."""
    u = np.linspace(0.0, span, u_samples, endpoint=False)[None, :]
    return u, np.random.default_rng(points).uniform(-1.0, span + 1.0, (lanes, 1))


def lag_phase_slack(u, length):
    """Share of a lane's largest mean by which the lag route may part from
    ``exact_means`` at points u beyond 1e-14: each lag phase w u rounds by up
    to eps |w u| / 2 and the window mean damps lag w by
    |E(w)| <= 2 / (|w| L), so a unit pair product moves by up to
    eps |u| / L.  Over 4500 random draws like window_rows' that take the
    lag route (spans to 60) the largest move beyond 1e-14 was 0.36 of this."""
    return np.finfo(float).eps * np.abs(u) / length


def lattice_slack(lams, unit, length, u):
    """How far the lag route's means of the unit-scaled rows (L, N, 2) may
    part from ``exact_means`` at points u, absolute, beyond
    ``lag_phase_slack``: in lattice units each pair lag l_j +- l_k sits at
    g (m_j +- m_k), off by at most d_j + d_k, d = |l - m g| (at most 2 ulps
    of l by the lattice's rule, exactly 0 on integer frequencies and
    without a lattice).  A pair's terms, z_j z_k E(w) e^{iwu} / 2 at both
    lags and twice for j < k, then move by at most
    |z_j z_k| (d_j + d_k) (|E(w)| |u| + L / 2) each, with
    |E(w)| <= 2 / max(|w| L, 2).  Over 3000 draws like window_rows' on the
    lattices of steps 0.1, 0.3 and 0.7, the lag route parted from
    exact_means by up to 3.0 times the bound without this term, and beyond
    that bound by at most 0.12 of this term."""
    lattice = _lattice(lams)
    if lattice is None:
        return np.zeros(np.broadcast_shapes(np.shape(u), (len(unit), 1)))
    g, m = lattice
    hi, lo = two_product(m.astype(float), np.full(m.shape, g))
    d = np.abs((lams - hi) - lo)
    j, k = np.triu_indices(lams.size)
    z = np.hypot(unit[..., 0], unit[..., 1])
    moved = np.where(j == k, 0.5, 1.0) * z[:, j] * z[:, k] * (d[j] + d[k])
    damp = sum(2.0 / np.maximum(np.abs(w) * length, 2.0) for w in (lams[j] + lams[k], lams[k] - lams[j]))
    return (moved @ damp)[:, None] * np.abs(u) + (moved.sum(axis=1) * length)[:, None]


def window_search(lams, coefs, grid, span, means=None):
    """The p = 2 window norms of the rows, and the window-mean function
    their sampled-sup search ran on; with ``means`` given, the search reads
    its values in place of the code's own, and takes its steps from the
    code's derivatives, so that the two searches part by rounding only."""
    seen = []
    sup = measures._sampled_sup

    def spy(g, *args, **kwargs):
        seen.append(g)

        def borrowed(u, jet=False):
            return (means(u), *g(u, jet=True)[1:]) if jet else means(u)

        return sup(borrowed if means else g, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_sampled_sup", spy)
        norms = measures._window_norm(lams, coefs, 2.0, grid, span, _lattice(lams))
    return norms, seen[0]


def lanes_equal_one_lane_calls(build, coefs, u, lane_u):
    """Each lane of the means ``build`` makes of the rows ``coefs`` is the
    means of its one-lane call, bit for bit, at shared and at lane points."""
    got, got_lanes = build(coefs)(u), build(coefs)(lane_u)
    for i in range(len(coefs)):
        one = build(coefs[i : i + 1])
        assert np.array_equal(one(u)[0], got[i])
        assert one(lane_u[i : i + 1])[0, 0] == got_lanes[i, 0]


class TestWindowLayout:
    """The p = 2 window means on both routes.  The Gram route takes k as
    (L, 2N, n) with the sample points last, and the former (..., 2N)-last
    form, which rounds the same phases l u, is its oracle; the lag route
    agrees with the Gram route where both take exact phases, and with
    ``exact_means`` everywhere."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=window_rows(),
        u_samples=st.integers(1, 256),
        span=st.floats(0.5, 60.0),
        points=st.integers(0, 2**32 - 1),
    )
    def test_u_last_matches_old_layout(self, rows, u_samples, span, points):
        lams, coefs = rows
        length = WindowGrid().window_length
        gram = measures._trig_gram(lams, length)
        scale = measures._unit_exponents(coefs)
        unit = np.ldexp(coefs, -scale[:, None, None])  # as the code scales them
        u, lane_u = window_points(len(coefs), u_samples, span, points)
        means = measures._gram_means(lams, unit, length)
        got, want = means(u), old_layout_means(lams, unit[:, None, :, 0], unit[:, None, :, 1], gram, u)
        got_lanes = means(lane_u)
        want_lanes = old_layout_means(lams, unit[:, None, :, 0], unit[:, None, :, 1], gram, lane_u)
        assert got.shape == want.shape == (len(coefs), u_samples)
        assert got_lanes.shape == want_lanes.shape == (len(coefs), 1)
        # 1e-14 of each lane's largest mean.  Frequencies closer than 0.25
        # (only the lattice draws of step 0.1) make the Gram near singular,
        # and a mean of 0.005 can be the sum of terms of size 5 that the two
        # layouts add in other orders: those are held to 1e-14 of the
        # absolute form at the point where that is larger
        top = np.maximum(want.max(axis=1), want_lanes[:, 0])[:, None]
        close = np.diff(lams).min(initial=math.inf) < 0.25
        for v, g, w in ((u, got, want), (lane_u, got_lanes, want_lanes)):
            bound = top
            if close:
                bound = np.maximum(top, old_layout_means(lams, unit[:, None, :, 0], unit[:, None, :, 1], gram, v, absolute=True))
            assert np.all(np.abs(g - w) <= 1e-14 * bound)
        lanes_equal_one_lane_calls(lambda c: measures._gram_means(lams, c, length), unit, u, lane_u)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=window_rows(),
        u_samples=st.integers(1, 256),
        span=st.floats(0.5, 60.0),
        points=st.integers(0, 2**32 - 1),
    )
    def test_routes_agree(self, rows, u_samples, span, points):
        # both builders on the same rows, at frequencies on multiples of 2^-8
        # and points on multiples of 2^-20, where every phase l u and w u is
        # exact: on spectra that take the lag route the two agree to 1e-14 of
        # each lane's largest mean (on the others the lag route sums
        # thousands of lags and is not used)
        lams, coefs = rows
        lams = np.round(lams * 256.0) / 256.0
        length = WindowGrid().window_length
        unit = np.ldexp(coefs, -measures._unit_exponents(coefs)[:, None, None])
        u, lane_u = (np.round(v * 2.0**20) / 2.0**20 for v in window_points(len(coefs), u_samples, span, points))
        pairs = measures._pair_lags(lams, _lattice(lams))
        lag, via_gram = measures._lag_means(pairs, unit, length), measures._gram_means(lams, unit, length)
        got, want = lag(u), via_gram(u)
        got_lanes, want_lanes = lag(lane_u), via_gram(lane_u)
        assert got.shape == want.shape and got_lanes.shape == want_lanes.shape
        if measures._lag_route(lams, pairs):
            top = np.maximum(want.max(axis=1), want_lanes[:, 0])[:, None]
            assert np.all(np.abs(got - want) <= 1e-14 * top)
            assert np.all(np.abs(got_lanes - want_lanes) <= 1e-14 * top)
        lanes_equal_one_lane_calls(lambda c: measures._lag_means(pairs, c, length), unit, u, lane_u)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=window_rows(),
        u_samples=st.integers(1, 256),
        span=st.floats(0.5, 60.0),
        points=st.integers(0, 2**32 - 1),
    )
    @example(
        rows=(np.array([3.0, 3.5, 3.75, 4.0, 5.0]), np.random.default_rng(2056).uniform(-1.0, 1.0, (1, 5, 2))),
        u_samples=1,
        span=49.0,
        points=5706,
    )
    def test_code_route_matches_oracle(self, rows, u_samples, span, points):
        # the means and norms on the route the code takes, against the Gram
        # route's oracle (the former layout, 1e-14) or the lag route's
        # (exact_means, 1e-14 plus the lag phases' rounding and the lattice's
        # lag offsets, all relative to the lane's largest mean, plus
        # eps (1 + |u| / L) of its pair mass (sum |z_j|)^2, since rounding
        # scales with the pair mass: the pinned draw's is 55 times its largest
        # mean; over 3000 lag-route draws like window_rows' the largest error
        # was 0.36 of this bound, and the pinned one 1.48 of the relative part)
        lams, coefs = rows
        grid = WindowGrid(u_samples=u_samples)
        length = grid.window_length
        scale = measures._unit_exponents(coefs)
        unit = np.ldexp(coefs, -scale[:, None, None])
        lagged = lag_route(lams)
        if lagged:

            def oracle(v):
                return exact_means(lams, unit, length, v)

            u, lane_u = window_points(len(coefs), u_samples, span, points)
            means = measures._lag_means(measures._pair_lags(lams, _lattice(lams)), unit, length)
            want, want_lanes = oracle(u), oracle(lane_u)
            top = np.maximum(want.max(axis=1), want_lanes[:, 0])[:, None]
            pair_mass = np.hypot(unit[..., 0], unit[..., 1]).sum(axis=1)[:, None] ** 2
            for v, w in ((u, want), (lane_u, want_lanes)):
                bound = (1e-14 + lag_phase_slack(v, length)) * top + lattice_slack(lams, unit, length, v)
                bound += (np.finfo(float).eps + lag_phase_slack(v, length)) * pair_mass
                assert np.all(np.abs(means(v) - w) <= bound)
        else:
            gram = measures._trig_gram(lams, length)

            def oracle(v):
                return old_layout_means(lams, unit[:, None, :, 0], unit[:, None, :, 1], gram, v)

        # the norms, as squared unit-scaled means, against a search on the
        # oracle's values: the grid peaks to the bound above; a refined
        # search stops within xatol = 1e-9 of where the other does, as their
        # values differ by rounding, so the refined sups may differ by
        # (1/2) max|f''| xatol^2 more, where |f''| <= 16 l_max^2 (sum r)^2
        # for the amplitudes r of the rows
        top = oracle(np.linspace(0.0, span, u_samples, endpoint=False)[None, :]).max(axis=1)
        rtol = 1e-14 + (lag_phase_slack(span + 1.0, length) if lagged else 0.0)
        r = np.hypot(unit[..., 0], unit[..., 1]).sum(axis=1)
        slack = 8.0 * lams[-1] ** 2 * r**2 * 1e-18
        moved = lattice_slack(lams, unit, length, span + 1.0)[:, 0] if lagged else 0.0
        for refine, extra in ((False, moved), (True, moved + slack)):
            gr = replace(grid, refine=refine)
            new_sq, old_sq = (
                np.ldexp(window_search(lams, coefs, gr, span, m)[0], -scale) ** 2 for m in (None, oracle)
            )
            assert np.all(np.abs(new_sq - old_sq) <= rtol * np.maximum(top, old_sq) + extra)
        # each lane of the L-lane call is its one-lane call, bit for bit
        norms = measures._window_norm(lams, coefs, 2.0, grid, span, _lattice(lams))
        for i in range(len(coefs)):
            assert measures._window_norm(lams, coefs[i : i + 1], 2.0, grid, span, _lattice(lams))[0] == norms[i]


class TestLatticeRoute:
    """Pair lags merged in the units of the frequencies' lattice."""

    def test_non_dyadic_lattice_takes_the_lag_route(self):
        # l_j = fl(0.3 j), j = 1..128: the pair lags are the 2N + 1 multiples
        # of 0.3 up to 76.8 (their sums and differences as floats take 691
        # distinct values), and the lag-route means match the exact oracle
        n, lanes = 128, 3
        lams = 0.3 * np.arange(1, n + 1)
        lags, at = measures._pair_lags(lams, _lattice(lams))
        assert lags.tolist() == (0.3 * np.arange(2 * n + 1)).tolist() and lag_route(lams)
        j, k = np.triu_indices(n)
        assert np.unique(np.concatenate([lams[j] + lams[k], lams[k] - lams[j]])).size == 691
        rng = np.random.default_rng(31)
        unit = rng.uniform(-1.0, 1.0, (lanes, n, 2)) * np.arange(1, n + 1)[:, None] ** -1.5
        length = WindowGrid().window_length
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(0.3, [(l, 1.0, 0.0) for l in lams]))
        span = resolve_span(f, WindowGrid())
        assert span == 2.0 * math.pi / 0.3
        u, lane_u = window_points(lanes, 64, span, 7)
        means = measures._lag_means((lags, at), unit, length)
        want, want_lanes = exact_means(lams, unit, length, u), exact_means(lams, unit, length, lane_u)
        top = np.maximum(want.max(axis=1), want_lanes[:, 0])[:, None]
        for v, w in ((u, want), (lane_u, want_lanes)):
            assert np.all(np.abs(means(v) - w) <= (1e-14 + lag_phase_slack(v, length)) * top)

    @pytest.mark.parametrize("lams", [[1.0, 10.0], [0.0, 1.0, 2.0, 5.0], [1.0, 2.0**0.5, 3.0], []])
    def test_integer_lags_are_the_float_sums(self, lams):
        # on integer frequencies lattice units give the same lags, bit for
        # bit, as the float sums and differences merged on exact equality;
        # a spectrum with no lattice merges those floats
        lams = np.array(lams)
        j, k = np.triu_indices(lams.size)
        entries = np.concatenate([lams[j] + lams[k], lams[k] - lams[j]])
        lags, at = measures._pair_lags(lams, _lattice(lams))
        assert lags.tolist() == np.unique(entries).tolist() and lags[at].tolist() == entries.tolist()

    @pytest.mark.parametrize("freqs", [(0.0, 0.3, 0.6, 1.5), (0.3, 0.6, 1.5), (0.0, 1.0, 2.0**0.5)])
    def test_norms_read_the_spectrum_lattice(self, monkeypatch, freqs):
        # stepanov_norm and modulus_omega pass Spectrum.lattice on, and
        # modulus_omega its part on the nonzero frequencies of the
        # differences; neither finds a lattice again
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(0.3, [(l, 1.0, 0.5 * (l > 0)) for l in freqs]))
        seen, pair_lags = [], measures._pair_lags

        def spy(lams, lattice):
            seen.append((lams, lattice))
            return pair_lags(lams, lattice)

        monkeypatch.setattr(measures, "_pair_lags", spy)
        monkeypatch.setattr(measures, "_lattice", None, raising=False)
        stepanov_norm(f, 2.0)
        modulus_omega(f, 0.3, 2.0)
        assert len(seen) == 2 and seen[0][1] is f.spectrum.lattice
        for lams, lattice in seen:
            want = _lattice(lams)
            assert (lattice is None) == (want is None)
            if want is not None:
                assert lattice[0] == want[0] and lattice[1].tolist() == want[1].tolist()


def trig_lanes(coefs, lams):
    """One trig polynomial per lane: points s shaped (L, n), or (1, n) for
    points the lanes share, -> sum_k a cos(l s) + b sin(l s) of each lane,
    summed term by term, so a lane's value does not depend on the others;
    with ``jet``, its first and second derivatives too."""

    def values(s, jet=False):
        out = np.zeros((3,) + np.broadcast_shapes(s.shape, (len(lams), 1)))
        for k in range(lams.shape[1]):
            a, b, l = coefs[:, k, 0, None], coefs[:, k, 1, None], lams[:, k, None]
            c, si = np.cos(l * s), np.sin(l * s)
            out[0] += a * c + b * si
            out[1] += l * (b * c - a * si)
            out[2] -= l * l * (a * c + b * si)
        return tuple(out) if jet else out[0]

    return values


# 1/phi = (sqrt 5 - 1)/2: the share of its bracket a golden-section step keeps.
INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


def golden_max(func, a, b, steps):
    """Largest value found by ``steps`` golden-section steps on each lane
    bracket [a, b], shaped (L,), run in lockstep.  func maps points shaped
    (L,), one per lane, to values shaped (L,)."""
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    fc, fd = func(c), func(d)
    for _ in range(steps):
        left = fc >= fd  # a maximum lies in [a, d], else in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, fkept = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - INV_PHI * (b - a), a + INV_PHI * (b - a))
        fx = func(x)
        c, fc = np.where(left, x, kept), np.where(left, fx, fkept)
        d, fd = np.where(left, kept, x), np.where(left, fkept, fx)
    return np.maximum(fc, fd)


def golden_sup(search):
    """The former refine of ``_sampled_sup`` on a search recorded by
    ``spy_searches``, the oracle of its Newton refine: each lane's grid
    peak, raised by golden-section steps within one grid step h of its
    argument, clipped to [lo, hi], the step count shrinking 2h to
    ``xatol``; and the grid peak."""
    g, t, h = search["g"], search["t"], search["h"]
    lo, hi = (search["args"] + (-math.inf, math.inf))[:2]
    xatol = search["kwargs"].get("xatol", 1e-10)
    vals = g(t[None, :])
    best = np.argmax(vals, axis=-1)
    peak = np.take_along_axis(vals, best[:, None], axis=-1)[:, 0]
    steps = max(0, math.ceil(math.log(xatol / (2.0 * h)) / math.log(INV_PHI)))
    top = golden_max(lambda s: g(s[:, None])[:, 0], np.maximum(lo, t[best] - h), np.minimum(hi, t[best] + h), steps)
    return np.where(top > peak, top, peak), peak


# smooth-thm2's spectrum at seed 7, sample 0 (the benchmark workload's
# phases) and its thm2 run
def thm2_workload_config():
    phases = np.random.default_rng([7, 0]).uniform(0.0, 2.0 * math.pi, 2)
    entries = [
        {"lambda": lam, "cos": m * math.cos(ph), "sin": -m * math.sin(ph)}
        for lam, m, ph in zip([1.0, 10.0], [1.0, 0.1], phases.tolist())
    ]
    return ExperimentConfig.from_dict({
        "spectrum": {"alpha": 1.0, "entries": entries},
        "theorem": "thm2",
        "matrix": {"builtin": "cesaro"},
        "p": 2.0,
        "q": [2.0],
        "n_range": [1, 24],
        "x_samples": 16,
    })


class TestNewtonRefine:
    """The Newton refine of ``_sampled_sup`` against the golden-section
    search it replaced (``golden_sup``), which it must not read below."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        periodic=st.booleans(),
        p=st.sampled_from([1.5, 2.0, math.inf]),
        u_samples=st.sampled_from([40, 512]),
        deltas=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=2),
    )
    def test_at_least_golden(self, seed, periodic, p, u_samples, deltas):
        # the translate differences of modulus_omega, one lane each: the
        # sup is at least the grid peak, exactly, and at least the golden
        # result less 1e-13 relative at p = 2 and inf.  At other finite p
        # the window rule's error ripples in u, and the two searches may
        # stop at different micro-maxima: ``RIPPLE_RTOL`` there.  Each grid
        # step holds at most ``_MAX_SUBS`` eighths of the top period: 40 or
        # 512 samples over the period of a periodic_function, 2048 over the
        # 64 periods of the slowest frequency that a random_function spans.
        # On coarser grids a bracket holds several maxima, and either search
        # may stop at a lower one
        f = (periodic_function if periodic else random_function)(seed)
        grid = WindowGrid(u_samples=u_samples if periodic else 2048)
        with pytest.MonkeyPatch.context() as mp:
            searches = spy_searches(mp)
            modulus_omega(f, deltas, p, grid)
        (search,) = searches
        assert 8.0 * search["h"] * search["freq"] / math.pi <= measures._MAX_SUBS
        golden, peak = golden_sup(search)
        got = search["sup"]
        assert np.all(got >= peak)
        rtol = 1e-13 if p in (2.0, math.inf) else RIPPLE_RTOL
        assert np.all(got >= golden - rtol * np.abs(golden))

    def test_flat_lanes_stop_at_their_grid_peak(self, monkeypatch):
        # at shifts that are multiples of pi / 5 the term at frequency 10
        # drops out of the translate difference, and the window mean of the
        # rest over a window of length pi is constant in u: lanes 31 and 50
        # of the run's one search.  They stop at their first jet call, on
        # their grid argument, and return their grid peak
        searches = spy_searches(monkeypatch)
        run(thm2_workload_config())
        (search,) = searches
        g, t = search["g"], search["t"]
        vals = g(t[None, :])
        start = t[np.argmax(vals, axis=-1)][:, None]
        _, d1, _ = g(start, jet=True)
        flat = np.abs(d1[:, 0]) <= measures._FLAT_SLOPE * search["freq"] * search["mass"]
        assert np.flatnonzero(flat).tolist() == [31, 50]
        assert len(search["jets"]) <= 4
        assert all(np.array_equal(u[flat], start[flat]) for u in search["jets"])
        assert search["sup"][flat].tolist() == vals.max(axis=-1)[flat].tolist()

    def test_bracket_end_is_read(self, monkeypatch):
        # f = cos(x / 2 - c) and one grid sample at u = 0: the window mean
        # is (1 - (2 / pi) sin(u - 2c)) / 2 on the bracket [-1, 1], with its
        # maximum at 2c - pi / 2 = 2.5 beyond the end u = 1; the search
        # reads that end, where the golden-section search stops short of it
        lams, c = np.array([0.5]), 0.5 * (2.5 + 0.5 * math.pi)
        coefs = np.array([[[math.cos(c), math.sin(c)]]])
        searches = spy_searches(monkeypatch)
        measures._window_norm(lams, coefs, 2.0, WindowGrid(u_samples=1), 1.0, _lattice(lams))
        (search,) = searches
        end = search["g"](np.array([[1.0]]))[0, 0]
        golden, _ = golden_sup(search)
        assert search["sup"][0] == pytest.approx(end, rel=1e-15, abs=0.0)
        assert search["sup"][0] > golden[0] and any((u == 1.0).any() for u in search["jets"])


class TestBoundedMin:
    """The bracketed search of ``_sampled_sup`` (a lockstep, safeguarded
    Newton search on each lane's derivative): lanes equal their one-lane
    calls, and each agrees with scipy's bounded search where its bracket
    holds one maximum."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        lanes=st.integers(1, 12),
        terms=st.integers(1, 5),
    )
    def test_lanes_match_minimize_scalar(self, seed, lanes, terms):
        # the sampled sup of each lane against its grid peak raised by
        # scipy's search of one grid step around it, both to xatol 1e-12;
        # with integer frequencies the grid spans a period, so each bracket
        # holds its lane's local maximum inside
        rng = np.random.default_rng(seed)
        coefs = rng.uniform(-1.0, 1.0, (lanes, terms, 2))
        lams = rng.integers(0, 9, (lanes, terms)).astype(float)
        values = trig_lanes(coefs, lams)
        # the period is centred on 0, where scipy's stopping test, which
        # scales with |x|, is tightest
        t = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        h = t[1] - t[0]
        got = measures._sampled_sup(values, t, h, lams.max(), np.abs(coefs).sum(axis=(1, 2)), xatol=1e-12)
        assert got.shape == (lanes,)
        for lane, row in enumerate(values(t[None, :])):
            one = trig_lanes(coefs[lane : lane + 1], lams[lane : lane + 1])
            best = t[np.argmax(row)]
            res = minimize_scalar(
                lambda s: -float(one(np.array([[s]]))[0, 0]),
                bounds=(best - h, best + h),
                method="bounded",
                options={"xatol": 1e-12},
            )
            want = max(row.max(), -res.fun)
            assert abs(got[lane] - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("lattice", [True, False])
    def test_lanes_equal_one_function_norms(self, p, lattice):
        # one search over 40 lanes returns each function's own norm, as a
        # one-lane call computes it; at p = 2 the lattice function takes the
        # lag route and the other the Gram route
        f = periodic_function(3, max_terms=8) if lattice else random_function(5, max_terms=8)
        assert lag_route(f.spectrum.freqs) == lattice and f.spectrum.freqs.size >= 5
        grid = WindowGrid(u_samples=24)
        fs = [translate_difference(f, t) for t in np.linspace(0.05, 3.0, 40)]
        coefs = np.array([[(e.cos_coef, e.sin_coef) for e in g.spectrum.entries] for g in fs])
        span = resolve_span(f, grid)
        lams = f.spectrum.freqs
        norms = measures._window_norm(lams, coefs, p, grid, span, _lattice(lams))
        one = [measures._window_norm(lams, coefs[i : i + 1], p, grid, span, _lattice(lams))[0] for i in range(40)]
        assert norms.tolist() == one
        for value, g in zip(norms.tolist(), fs):
            assert value >= refine_block_norm(g, p, replace(grid, refine=False))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        x=st.floats(0.0, 2.0 * math.pi),
        deltas=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3),
        shifts=st.lists(st.floats(-2.0, 2.0), max_size=5),
    )
    def test_inf_moduli_lanes_equal_one_lane_calls(self, seed, x, deltas, shifts):
        # lane 0 (phi_x) and each shift lane of one p = inf search equal the
        # calls that search them alone
        f = random_function(seed)
        point, shifted = moduli(f, x, deltas, shifts, math.inf)
        assert point.tolist() == [moduli(f, x, [d], (), math.inf)[0][0] for d in deltas]
        assert shifted.tolist() == [
            [moduli(f, x, [d], [s], math.inf)[1][0, 0] for s in shifts] for d in deltas
        ]

    @pytest.mark.parametrize("lams", [[1.0, 10.0], [1.0, 2.3, 4.1, 6.7, 9.2, 12.9], []])
    def test_no_lanes_or_no_terms(self, lams):
        # modulus_omega at delta = 0 norms no shift: an empty search; the
        # translate differences of a constant have no terms and norm 0.  At
        # p = 2 the first spectrum takes the lag route, the second the Gram
        # route, and both builders take both empty shapes
        lams = np.array(lams)
        for lanes in (0, 3):
            coefs = np.ones((lanes, lams.size, 2))
            for p in (1.5, 2.0, math.inf):
                norms = measures._window_norm(lams, coefs, p, WindowGrid(), 2.0 * math.pi, _lattice(lams))
                assert norms.shape == (lanes,)
                assert np.all(norms > 0.0) if lams.size else norms.tolist() == [0.0] * lanes
            u = np.linspace(0.0, 1.0, 5)[None, :]
            for means in (
                measures._gram_means(lams, coefs, math.pi),
                measures._lag_means(measures._pair_lags(lams, _lattice(lams)), coefs, math.pi),
            ):
                assert means(u).shape == (lanes, 5) and means(np.ones((lanes, 1))).shape == (lanes, 1)
                assert lams.size or not means(u).any()
        assert lag_route(np.array([1.0, 10.0])) and not lag_route(np.array([1.0, 2.3, 4.1, 6.7, 9.2, 12.9]))


class TestPointwiseModulus:
    def test_constant_zero(self):
        assert moduli(CONST, 0.3, [1.0], (), 2.0)[0].tolist() == [0.0]

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_cos_closed_form(self, delta):
        (got,) = moduli(COS, 0.0, [delta], (), 1.0)[0]
        assert got == pytest.approx(2.0 - 2.0 * math.sin(delta) / delta, abs=1e-6)

    def test_vanishes_as_delta_shrinks(self):
        vals = moduli(SMOOTH, 0.7, [1e-2, 1e-4, 1e-6], (), 2.0)[0]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-10

    def test_sup_variant(self):
        (got,) = moduli(COS, 0.0, [math.pi], (), math.inf)[0]
        assert got == pytest.approx(4.0, abs=1e-8)


class TestPhiAverage:
    def test_constant_zero(self):
        assert phi_average(CONST, 1.0, 0.5, 2.0) == 0.0

    def test_cos_closed_form(self):
        delta, nu = 0.8, 1.3
        got = phi_average(COS, 0.0, delta, nu)
        want = (2.0 / delta) * (math.sin(nu + delta) - math.sin(nu)) - 2.0
        assert got == pytest.approx(want, abs=1e-9)

    def test_small_delta_limit(self):
        nu = 0.9
        got = phi_average(SMOOTH, 0.4, 1e-7, nu)
        assert got == pytest.approx(SMOOTH.second_difference(0.4, nu), abs=1e-6)

    @pytest.mark.parametrize(
        "delta, nu, match",
        [
            (math.nan, 1.0, "delta"),
            (math.inf, 1.0, "delta"),
            (0.0, 1.0, "delta"),
            (0.5, math.nan, "nu"),
            (0.5, math.inf, "nu"),
            (0.5, -0.1, "nu"),
        ],
    )
    def test_bad_widths_refused(self, delta, nu, match):
        # a NaN or inf width averaged to NaN after RuntimeWarnings
        with pytest.raises(ValueError, match=match):
            phi_average(SMOOTH, 0.4, delta, nu)


class TestTailMass:
    def test_beyond_spectrum_zero(self):
        assert SMOOTH.spectrum.tail_mass(10.0) == 0.0
        assert SMOOTH.spectrum.tail_mass(12.0) == 0.0

    def test_partial_tail(self):
        assert SMOOTH.spectrum.tail_mass(5.0) == pytest.approx(0.1)

    def test_full_tail(self):
        assert SMOOTH.spectrum.tail_mass(0.5) == pytest.approx(1.1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), s1=st.floats(0, 20), s2=st.floats(0, 20))
    def test_nonincreasing_in_cutoff(self, seed, s1, s2):
        spec = random_function(seed).spectrum
        lo, hi = min(s1, s2), max(s1, s2)
        assert spec.tail_mass(hi) <= spec.tail_mass(lo) + 1e-15


def class_report(f, x, w, p, plan=None):
    """The class constants of w on the plan's samples, from the lhs table
    that ``fit_class_majorant`` builds."""
    plan = plan or SamplePlan.default()
    return measures._class_report(*moduli(f, x, plan.points, measures._class_shifts(plan), p), plan, w)


def fit_one(f, x, p, plan=None):
    """The majorant fit of one x from two ``moduli`` calls (its envelope
    and its class table), each building its own Grams."""
    plan = plan or SamplePlan.default()
    lhs = moduli(f, x, plan.points, measures._class_shifts(plan), p)
    return measures._rescaled(moduli(f, x, FIT_DELTAS, (), p)[0], lhs, plan)


def envelope(f, x):
    """The unscaled p = 2 envelope of the fit at x."""
    return measures._fit_envelope(moduli(f, x, FIT_DELTAS, (), 2.0)[0])


class TestOmegaClass:
    def test_constant_function_zero_constants(self):
        rep = class_report(CONST, 0.0, PowerModulus(1.0), 2.0)
        assert rep.c1 == 0.0 and rep.c2 == 0.0
        assert rep.constant == 0.0

    def test_cos_with_capped_linear(self):
        w = PowerModulus(1.0, 1.0, cap=2.0)
        rep = class_report(COS, 0.0, w, 2.0)
        assert math.isfinite(rep.c1) and math.isfinite(rep.c2)
        assert rep.c1 > 0.0 and rep.c2 > 0.0

    def test_zero_majorant_fails(self):
        rep = class_report(COS, 0.0, PowerModulus(0.0), 2.0)
        assert rep.constant == math.inf


class TestEq7:
    def test_constant_always_true(self):
        w = PowerModulus(0.0)
        assert check_eq7(CONST, 0.3, w, 1.0, 2.0)

    def test_cos_rescaled_grid(self):
        [(w, rep)] = fit_class_majorant(COS, [0.0], 2.0)
        assert rep.constant <= 1.0
        pts = [2.0 * math.pi * i / 20 for i in range(1, 21)]
        assert all(check_eq7(COS, 0.0, w, d1, d2) for d1 in pts for d2 in pts)

    def test_symmetric_samples(self):
        [(w, _)] = fit_class_majorant(COS, [0.0], 2.0)
        for d in (0.3, 1.0, 2.0, 3.1):
            assert check_eq7(COS, 0.0, w, d, d)

    @pytest.mark.parametrize("delta1, delta2", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_width_refused(self, delta1, delta2):
        # a NaN width failed the comparison and returned False silently
        with pytest.raises(ValueError):
            check_eq7(COS, 0.0, PowerModulus(1.0), delta1, delta2)


class TestShiftedDifferenceMean:
    def test_constant_zero(self):
        assert moduli(CONST, 0.0, [1.0], [0.5], 2.0)[1].tolist() == [[0.0]]

    def test_sup_over_x_bounded_by_translate_modulus(self):
        # the shifted second difference splits into two translate
        # differences at shift gamma, so its windowed mean stays within a
        # fixed multiple of the translate modulus at gamma
        p = 2.0
        grid = WindowGrid()
        span = resolve_span(SMOOTH, grid)
        xs = np.linspace(0.0, span, 48, endpoint=False)
        gammas = (0.25, 0.5, 1.0)
        shifts = [s * g for g in gammas for s in (1.0, -1.0)]
        # the largest mean over x, delta and sign, per gamma
        top = np.max(
            [moduli(SMOOTH, float(x), (0.3, 0.7, 1.5), shifts, p)[1] for x in xs], axis=(0, 1)
        ).reshape(len(gammas), 2).max(axis=1)
        assert np.all(top <= 4.0 * modulus_omega(SMOOTH, gammas, p, grid))

    @pytest.mark.parametrize("delta", [0.3, 1.0])
    @pytest.mark.parametrize("gamma", [0.2, 2.0])
    def test_sup_variant_against_dense_max(self, delta, gamma):
        x = 0.7

        def diff(t):
            return np.abs(
                SMOOTH.second_difference(x, t) - SMOOTH.second_difference(x, t + gamma)
            )

        got = moduli(SMOOTH, x, [delta], [gamma], math.inf)[1][0, 0]
        t = np.linspace(0.0, delta, 20_000)
        vals = diff(t)
        dense = float(vals.max())
        # a dense grid approaches the sup from below
        assert got >= dense * (1.0 - 1e-9)
        # and a 2001-point grid within one step of its peak pins the sup
        step = t[1] - t[0]
        peak = float(t[np.argmax(vals)])
        fine = np.linspace(max(0.0, peak - step), min(delta, peak + step), 2001)
        assert got <= float(diff(fine).max()) * (1.0 + 1e-12)
        assert got != 1.0


class TestFitMajorant:
    def test_envelope_dominates_samples(self):
        w = envelope(SMOOTH, 0.7)
        for d, m in zip(FIT_DELTAS, moduli(SMOOTH, 0.7, FIT_DELTAS, (), 2.0)[0].tolist()):
            assert w(d) >= m - 1e-12

    def test_constant_function_fits_zero(self):
        w = envelope(CONST, 0.0)
        assert w(1.0) == 0.0

    def test_subadditive_on_pairs(self):
        w = envelope(SMOOTH, 0.0)
        ds = [d for d, _ in w.knots]
        for a in ds:
            for b in ds:
                assert w(a + b) <= w(a) + w(b) + 1e-12

    def test_envelope_builds_no_shift_gram(self, monkeypatch):
        # the fit's envelope and a moduli call without shifts build no
        # shifted-difference Gram; the point moduli, and so the fitted
        # knots, are those of a call that builds one
        cases = [(SMOOTH, 0.7), (random_function(3), 1.1), (random_function(8), -2.0)]
        want = []
        for f, x in cases:
            point, _ = moduli(f, x, FIT_DELTAS, [0.5], 2.0)
            samples = [(0.0, 0.0), *zip(FIT_DELTAS, point.tolist())]
            want.append((tuple(measures._concave_envelope(samples)), point[3]))
        grams = []
        gram = measures._trig_gram
        monkeypatch.setattr(measures, "_trig_gram", lambda *a: grams.append(a) or gram(*a))
        got = [
            (envelope(f, x).knots, moduli(f, x, [FIT_DELTAS[3]], (), 2.0)[0][0])
            for f, x in cases
        ]
        assert grams == [] and got == want


@st.composite
def separated_spectra(draw, coef=st.floats(-1.0, 1.0)):
    """1-8 terms with gaps >= alpha, sometimes with a constant term."""
    n = draw(st.integers(1, 8))
    alpha = draw(st.floats(0.2, 2.0))
    gaps = draw(st.lists(st.floats(1.0, 40.0), min_size=n, max_size=n))
    terms = [
        (lam, draw(coef), draw(coef)) for lam in (alpha * np.cumsum(gaps)).tolist()
    ]
    if draw(st.booleans()):
        terms.insert(0, (0.0, draw(coef), 0.0))
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(alpha, terms))


log_deltas = st.floats(math.log(1e-6), math.log(2.0 * math.pi)).map(math.exp)
shifts = st.floats(-2.0 * math.pi, 2.0 * math.pi)
points = st.floats(0.0, 2.0 * math.pi)


# Subnormal coefficients are left out: a*cos(l x) already rounds on the
# subnormal grid, so no closed form can be relatively exact there (the
# subnormal case of phi_average has its exact mpmath oracle below).
normal_spectra = separated_spectra(st.floats(-1.0, 1.0, allow_subnormal=False))


def unit_scaled(f):
    """f scaled by 2**-e to amplitude mass in [0.5, 1), and e.  The
    quadrature oracle runs on the scaled function: at tiny amplitudes its
    own squares and weighted sums would round on the subnormal grid.
    Power-of-two scaling is exact, so at ordinary amplitudes the comparison
    is the unscaled one."""
    e = math.frexp(f.spectrum.tails[0])[1]
    return scaled(f, 2.0**-e), e


def fine_mean(values, lo, hi):
    """(1/(hi - lo)) int_lo^hi values(t) dt on 4096 Gauss-Legendre panels."""
    t, w = _gl_panels(lo, hi, 4096)
    return float(np.dot(w, values(t))) / (hi - lo)


def close_squares(got, want, mass):
    return abs(got**2 - want) <= 1e-12 * want + 1e-14 * mass**2


class TestClosedFormsAgainstQuadrature:
    """The p = 2 quadratic forms against fine quadrature of the integrands."""

    @settings(max_examples=150, deadline=None)
    @given(f=normal_spectra, x=points, delta=log_deltas, gamma=shifts)
    def test_pointwise_and_shifted_means(self, f, x, delta, gamma):
        g, e = unit_scaled(f)
        mass = g.spectrum.tails[0]
        phi = lambda t: g.second_difference(x, t)
        point, shifted = moduli(f, x, [delta], [gamma], 2.0)
        want = fine_mean(lambda t: phi(t) ** 2, 0.0, delta)
        assert close_squares(math.ldexp(point[0], -e), want, mass)
        want = fine_mean(lambda t: (phi(t) - phi(t + gamma)) ** 2, 0.0, delta)
        assert close_squares(math.ldexp(shifted[0, 0], -e), want, mass)

    @settings(max_examples=100, deadline=None)
    @given(
        f=normal_spectra,
        u=st.floats(-50.0, 50.0),
        length=st.floats(0.1, 2.0 * math.pi),
    )
    def test_stepanov_window_mean(self, f, u, length):
        # one unrefined sample at u = 0 of the translate f(. + u) is the
        # window mean of f^2 over [u, u + length]
        grid = WindowGrid(u_samples=1, window_length=length, refine=False)
        g, e = unit_scaled(f)
        got = math.ldexp(stepanov_norm(translate(f, u), 2.0, grid), -e) ** 2
        want = fine_mean(lambda t: g(t) ** 2, u, u + length)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * g.spectrum.tails[0] ** 2)

    @settings(max_examples=100, deadline=None)
    @given(
        f=normal_spectra,
        x=points,
        delta=st.floats(1e-3, 2.0 * math.pi),
        nu=points,
    )
    def test_phi_average(self, f, x, delta, nu):
        g, e = unit_scaled(f)
        want = fine_mean(lambda t: g.second_difference(x, t), nu, nu + delta)
        got = math.ldexp(phi_average(f, x, delta, nu), -e)
        assert abs(got - want) <= 1e-12 * g.spectrum.tails[0]

    @settings(max_examples=100, deadline=None)
    @given(
        f=normal_spectra,
        x=points,
        delta=st.floats(1e-3, 2.0 * math.pi),
        nu=points,
    )
    @example(
        # a subnormal amplitude, where fine quadrature is 2e-320 off
        f=QuasiPeriodicFunction(Spectrum(1.0, (SpectrumEntry(1.0, 0.0, 2.0**-1023),))),
        x=1.0,
        delta=1.0 / 64.0,
        nu=0.0,
    )
    def test_phi_average_against_mpmath(self, f, x, delta, nu):
        # (1/delta) int_nu^{nu+delta} phi_x = sum 2 g(x) [(sin(l (nu + delta))
        # - sin(l nu)) / (l delta) - 1], 0 for l = 0
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        x, delta, nu = mpmath.mpf(x), mpmath.mpf(delta), mpmath.mpf(nu)
        want = mpmath.mpf(0)
        for e in f.spectrum.entries:
            if e.freq == 0.0:
                continue
            lam = mpmath.mpf(e.freq)
            g = e.cos_coef * mpmath.cos(lam * x) + e.sin_coef * mpmath.sin(lam * x)
            mean = (mpmath.sin(lam * (nu + delta)) - mpmath.sin(lam * nu)) / (lam * delta)
            want += 2 * g * (mean - 1)
        got = phi_average(f, float(x), float(delta), float(nu))
        assert abs(got - want) <= 1e-12 * f.spectrum.tails[0]

    @pytest.mark.parametrize("a", [3.95e-160, 1e-170, 2.0**-1000, 1.0, 1e200])
    def test_p2_forms_at_extreme_amplitudes(self, a):
        # f = a (cos t + sin(3 t) / 2): the squares in the p = 2 forms would
        # underflow (or overflow) at these amplitudes.  The reference is
        # a times the unit-amplitude value: mpmath quadrature for m_x and
        # the shifted mean, sqrt(5/8) for every window of length pi
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(1.0, a, 0.0), (3.0, 0.0, 0.5 * a)]))
        x, delta, gamma = 0.4, 0.8, 0.3
        unit = lambda t: mpmath.cos(t) + mpmath.sin(3 * t) / 2
        phi = lambda t: unit(x + t) + unit(x - t) - 2 * unit(x)
        mean = lambda g: float(mpmath.sqrt(mpmath.quad(lambda t: g(t) ** 2, [0, delta]) / delta))
        rel = lambda want: pytest.approx(want, rel=1e-12, abs=0.0)
        point, shifted = moduli(f, x, [delta], [gamma], 2.0)
        assert point[0] == rel(a * mean(phi))
        assert shifted[0, 0] == rel(a * mean(lambda t: phi(t) - phi(t + gamma)))
        assert stepanov_norm(f, 2.0) == rel(a * math.sqrt(5.0 / 8.0))
        omega = modulus_omega(f, gamma, 2.0)
        assert omega == rel(a * modulus_omega(scaled(f, 1.0 / a), gamma, 2.0))

    def test_p2_omega_tiny_shift_among_others(self):
        # f(. + t) - f = t f' to first order, and every pi-window of
        # f'^2 = (-sin t + 1.5 cos 3t)^2 has mean 1.625; the tiny shift is
        # scaled on its own, not by the largest lane of the search
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0), (3.0, 0.0, 0.5)]))
        tiny = 1e-300
        got = modulus_omega(f, [tiny, 0.3], 2.0)
        assert got[0] == modulus_omega(f, tiny, 2.0)
        assert got[0] == pytest.approx(tiny * math.sqrt(1.625), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma", [1e-170, 2.0**-900])
    def test_p2_shifted_mean_at_tiny_shift(self, gamma):
        # phi_x(t) - phi_x(t + gamma) = -gamma phi_x'(t) to first order
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0), (3.0, 0.0, 0.5)]))
        x, delta = 0.4, 0.8
        slope = lambda t: -mpmath.sin(t) + 1.5 * mpmath.cos(3 * t)
        dphi = lambda t: slope(x + t) - slope(x - t)
        want = gamma * float(mpmath.sqrt(mpmath.quad(lambda t: dphi(t) ** 2, [0, delta]) / delta))
        got = moduli(f, x, [delta], [gamma], 2.0)[1][0, 0]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("z", [0.0, 1e-8, 1e-3, 0.3, 0.999, 1.0, 1.7, 40.0])
    def test_one_minus_sinc(self, z):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        want = float(1 - mpmath.sin(z) / z) if z else 0.0
        got = float(measures._one_minus_sinc(np.array([z, -z]))[0])
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def loop_class_check(f, x, w, p, plan):
    """The class constants as one moduli call per sample, the reference for
    the batched lhs table."""
    c1 = c2 = 0.0
    for g in plan.points:
        for d in plan.points:
            for s in (1.0, -1.0):
                lhs = moduli(f, x, [d], [s * g], p)[1][0, 0]
                ratio = lhs / w(g) if w(g) > 0.0 else math.inf
                if lhs > 1e-14 and ratio > c1:
                    c1 = ratio
    for d in plan.points:
        lhs = moduli(f, x, [d], (), p)[0][0]
        ratio = lhs / w(d) if w(d) > 0.0 else math.inf
        if lhs > 1e-14 and ratio > c2:
            c2 = ratio
    return OmegaClassReport(c1, c2)


def same_report(got, want, rel):
    assert got.c1 == pytest.approx(want.c1, rel=rel, abs=0.0)
    assert got.c2 == pytest.approx(want.c2, rel=rel, abs=0.0)


many_x = st.lists(points, min_size=2, max_size=3, unique=True)


class TestClassTable:
    @settings(max_examples=40, deadline=None)
    @given(f=separated_spectra(), x=points, count=st.integers(1, 8))
    def test_fit_report_matches_fresh_check(self, f, x, count):
        plan = SamplePlan.default(count=count)
        [(w, rep)] = fit_class_majorant(f, [x], 2.0, plan)
        same_report(rep, class_report(f, x, w, 2.0, plan), 1e-12)
        assert rep.constant <= 1.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("coef", [1.0, 0.0])  # 0: every ratio ties at inf
    def test_batched_table_matches_per_sample_calls(self, p, coef):
        f = random_function(7)
        plan = SamplePlan((0.3, 1.1, 2.5))
        w = PowerModulus(coef, 0.5)
        got = class_report(f, 0.6, w, p, plan)
        # quadrature (p != 2) runs the same arithmetic in both; the p = 2
        # einsum may sum in another order
        same_report(got, loop_class_check(f, 0.6, w, p, plan), 0.0 if p != 2.0 else 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(f=separated_spectra(), xs=many_x, count=st.integers(1, 8))
    def test_fit_over_many_x_matches_one_x_fits(self, f, xs, count):
        # the call shares one phi Gram over FIT_DELTAS and the plan's points
        # (some float-equal to a FIT_DELTAS entry, some not) and one trig
        # Gram among every x; two moduli calls that build their own give
        # the same bits
        plan = SamplePlan.default(count=count)
        same_fits(f, xs, 2.0, plan, lambda x: [fit_one(f, x, 2.0, plan)])

    @pytest.mark.parametrize("p", [1.5, math.inf])
    @settings(max_examples=4, deadline=None)
    @given(f=separated_spectra(), xs=many_x, count=st.integers(1, 8))
    def test_fit_over_many_x_off_p2_matches_one_x_fits(self, p, f, xs, count):
        same_fits(f, xs, p, SamplePlan.default(count=count))


def same_fits(f, xs, p, plan, more=lambda x: []):
    """One fit call over every x gives each x the knots and constants of its
    one-x fit and of each fit ``more(x)`` lists, bit for bit."""
    for x, (w, rep) in zip(xs, fit_class_majorant(f, xs, p, plan)):
        for want_w, want_rep in fit_class_majorant(f, [x], p, plan) + more(x):
            assert w.knots == want_w.knots
            assert (rep.c1, rep.c2) == (want_rep.c1, want_rep.c2)


class TestLargeP:
    """|g|^p overflowed past p of a few hundred: the window norms turned
    inf and the moduli raised "knots must be finite" in the fit."""

    PS = (400.0, 1000.0, 5000.0)

    def test_window_norms_finite_and_rising_to_the_sup(self):
        norms = [stepanov_norm(SMOOTH, p) for p in self.PS]
        omegas = [modulus_omega(SMOOTH, [0.3, 1.0], p) for p in self.PS]
        assert all(0.0 < a < b for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= stepanov_norm(SMOOTH, math.inf) * (1.0 + 1e-9)
        assert all(np.all((0.0 < a) & (a < b)) for a, b in zip(omegas, omegas[1:]))
        assert np.all(omegas[-1] <= modulus_omega(SMOOTH, [0.3, 1.0], math.inf) * (1.0 + 1e-9))

    def test_moduli_finite_and_rising_to_the_sup(self):
        deltas, shifts = (0.3, 1.0), (0.4, -1.1)
        rows = [np.concatenate([*moduli(SMOOTH, 0.6, deltas, shifts, p)], axis=None)
                for p in (*self.PS, math.inf)]
        assert all(np.all((0.0 < a) & (a < b * (1.0 + 1e-9))) for a, b in zip(rows, rows[1:]))

    def test_fit_at_large_p(self):
        [(w, report)] = fit_class_majorant(SMOOTH, [0.6], 600.0, SamplePlan.default(count=6))
        assert all(math.isfinite(v) for _, v in w.knots) and w(1.0) > 0.0
        assert report.constant <= 1.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize(
    "deltas, shifts, name",
    [
        (0.5, [0.5], "deltas"),
        ([[0.5, 1.0]], [0.5], "deltas"),
        ([math.inf], [0.5], "deltas"),
        ([math.nan], [0.5], "deltas"),
        ([0.0], [0.5], "deltas"),
        ([-1.0], [0.5], "deltas"),
        ([0.5], 0.5, "shifts"),
        ([0.5], [[0.5]], "shifts"),
        ([0.5], [math.nan], "shifts"),
        ([0.5], [math.inf], "shifts"),
        ([0.5], [-math.inf], "shifts"),
    ],
)
def test_moduli_one_input_rule_at_every_p(p, deltas, shifts, name):
    # a scalar or 2-D delta ran at p = 2 and raised a TypeError elsewhere;
    # an infinite delta gave NaN, an OverflowError or a math domain error,
    # and a non-finite shift a silent NaN entry
    with pytest.raises(ValueError, match=f"^{name} must be a 1-D list"):
        moduli(SMOOTH, 0.0, deltas, shifts, p)
