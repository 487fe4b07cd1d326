import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apsum import spectra
from apsum.experiment import builtin_spectra
from apsum.spectra import (
    Spectrum,
    SpectrumEntry,
    SpectrumError,
    QuasiPeriodicFunction,
    load_spectrum,
    spectrum_from_dict,
    validate_spectrum,
)

COS = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0)]))
CONST3 = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(0.0, 3.0, 0.0)]))
SMOOTH = QuasiPeriodicFunction(
    Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0), (10.0, 0.1, 0.0)])
)


def random_function(rng, max_terms=5, with_dc=True):
    n = int(rng.integers(1, max_terms + 1))
    alpha = float(rng.uniform(0.3, 1.5))
    lams = np.cumsum(rng.uniform(alpha, 2.0 * alpha, n)) + alpha * rng.uniform(0, 1)
    terms = []
    if with_dc and rng.random() < 0.5:
        terms.append((0.0, float(rng.uniform(-1, 1)), 0.0))
    terms += [
        (float(l), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for l in lams
    ]
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(alpha, terms))


class TestEval:
    def test_cos_at_zero(self):
        assert COS(0.0) == 1.0

    def test_constant_everywhere(self):
        assert CONST3(17.2) == 3.0

    def test_smooth_against_high_precision_sum(self):
        # independent oracle: 50-digit evaluation of the defining sum
        mpmath.mp.dps = 50
        expected = float(
            mpmath.cos(mpmath.mpf("0.3")) + mpmath.mpf("0.1") * mpmath.cos(mpmath.mpf("3.0"))
        )
        assert SMOOTH(0.3) == pytest.approx(expected, abs=1e-15)

    def test_sin_terms_and_arrays(self):
        f = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(2.0, 0.5, -0.25)]))
        x = np.array([0.0, 0.4, -1.3])
        expected = 0.5 * np.cos(2 * x) - 0.25 * np.sin(2 * x)
        np.testing.assert_allclose(f(x), expected, rtol=1e-15)


def plain_terms(f, x):
    """Independent per-entry oracle for the term values at a scalar x."""
    return [
        e.cos_coef if e.freq == 0.0
        else e.cos_coef * math.cos(e.freq * x) + e.sin_coef * math.sin(e.freq * x)
        for e in f.spectrum.entries
    ]


class TestArrayForm:
    def test_arrays_are_read_only(self):
        spec = SMOOTH.spectrum
        assert spec.freqs.tolist() == [1.0, 10.0]
        assert spec.coefs.tolist() == [[1.0, 0.0], [0.1, 0.0]]
        assert spec.tails.tolist() == [1.1, 0.1, 0.0]
        for arr in (spec.freqs, spec.coefs, spec.tails):
            with pytest.raises(ValueError):
                arr[0] = 2.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000), shape=st.sampled_from([(), (1,), (6,), (2, 3)]))
    def test_array_x_equals_scalar_calls(self, seed, shape):
        rng = np.random.default_rng(seed)
        f = random_function(rng)
        top = f.spectrum.max_frequency()
        xs = rng.uniform(-50.0, 50.0, shape)
        gammas = rng.uniform(0.0, 1.5 * top, 5)
        terms, sums, vals = f.term_values(xs), f.partial_sums(xs, gammas), np.asarray(f(xs))
        assert terms.shape == xs.shape + (len(f.spectrum.entries),)
        assert sums.shape == xs.shape + gammas.shape
        for idx in np.ndindex(shape):
            x = float(xs[idx])
            assert terms[idx].tolist() == f.term_values(x).tolist() == plain_terms(f, x)
            assert sums[idx].tolist() == f.partial_sums(x, gammas).tolist()
            assert vals[idx] == f(x)
            # the ladder past the top frequency is f(x) to the bit, so the
            # deviations there are exactly 0
            assert f.partial_sums(x, 2.0 * top + 1.0) == f(x)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000), t=st.floats(-20.0, 20.0))
    def test_difference_rows_evaluate_the_translate_difference(self, seed, t):
        rng = np.random.default_rng(seed)
        f = random_function(rng)
        lams, rows = spectra._difference_rows(f.spectrum, t)
        xs = rng.uniform(-5.0, 5.0, 7)
        lx = np.outer(xs, lams)
        got = (rows[:, 0] * np.cos(lx) + rows[:, 1] * np.sin(lx)).sum(axis=1)
        np.testing.assert_allclose(got, f(xs + t) - f(xs), rtol=0.0, atol=1e-12)


def old_amp(freq, c, s):
    """The one-sided complex amplitude (c - i s) / 2 that each entry stored
    before it kept the file's cos/sin pair (c itself at frequency 0)."""
    return complex(c, 0.0) if freq == 0.0 else complex(0.5 * c, -0.5 * s)


# coefficients and shifts where halving, doubling and every product in the
# difference rows stay in the normal float range
normal_coefs = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))
normal_terms = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.01, 1e3)), normal_coefs, normal_coefs),
    min_size=1,
    max_size=6,
).map(lambda ts: [(lam, c, 0.0 if lam == 0.0 else s) for lam, c, s in ts])
shifts = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 100.0), st.floats(-100.0, -1e-3)), min_size=1, max_size=4
)


class TestComplexAmplitudeOracle:
    @settings(max_examples=200, deadline=None)
    @given(terms=normal_terms, ts=shifts)
    @example(terms=[(1.0, 0.3, 0.5)], ts=[1.0])  # where math.hypot is an ulp off
    def test_cos_sin_entries_match_complex_form(self, terms, ts):
        # equal floats (a zero's sign aside) to the complex-amplitude formulas
        spec = Spectrum.from_cos_sin(1.0, terms)
        amps = [(lam, old_amp(lam, c, s)) for lam, c, s in sorted(terms, key=lambda t: t[0])]
        weights = [abs(a) if lam == 0.0 else 2.0 * abs(a) for lam, a in amps]
        assert spec.coefs.tolist() == [
            [a.real, 0.0] if lam == 0.0 else [2.0 * a.real, -2.0 * a.imag] for lam, a in amps
        ]
        assert spec.tails.tolist() == np.append(np.cumsum(weights[::-1])[::-1], 0.0).tolist()
        lams = np.array([lam for lam, _ in amps if lam != 0.0], dtype=float)
        a = np.array([a for lam, a in amps if lam != 0.0], dtype=complex)
        r = np.exp(1j * np.multiply.outer(np.array(ts), lams)) - 1.0
        re, im = a.real * r.real - a.imag * r.imag, a.real * r.imag + a.imag * r.real
        got_lams, got = spectra._difference_rows(spec, np.array(ts))
        assert got_lams.tolist() == lams.tolist()
        assert got.tolist() == (2.0 * np.stack([re, -im], axis=-1)).tolist()


class TestSecondDifference:
    def test_constant_cancels(self):
        assert CONST3.second_difference(0.7, 2.3) == 0.0

    def test_cos_identity(self):
        t = 0.9
        assert COS.second_difference(0.0, t) == pytest.approx(
            2.0 * math.cos(t) - 2.0, abs=1e-15
        )

    def test_zero_shift(self):
        assert SMOOTH.second_difference(1.1, 0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        x=st.floats(-5, 5),
        t=st.floats(-5, 5),
    )
    def test_matches_translate_combination(self, seed, x, t):
        f = random_function(np.random.default_rng(seed))
        direct = f(x + t) + f(x - t) - 2.0 * f(x)
        assert f.second_difference(x, t) == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), x=st.floats(-5, 5), t=st.floats(0, 5))
    def test_even_in_t(self, seed, x, t):
        f = random_function(np.random.default_rng(seed))
        assert f.second_difference(x, t) == f.second_difference(x, -t)


class TestGaussLegendreRule:
    def test_gl_rule_is_numpys(self):
        # the written-out rule is numpy's Gauss-Legendre rule, float for float
        xi, wt = np.polynomial.legendre.leggauss(spectra.GL_NODES)
        assert spectra._GL_XI.tolist() == xi.tolist()
        assert spectra._GL_WT.tolist() == wt.tolist()


def lattice_of(freqs):
    """The lattice of a spectrum on these frequencies, unit cos amplitudes."""
    return Spectrum.from_cos_sin(1.0, [(float(l), 1.0, 0.0) for l in freqs]).lattice


def assert_lattice_of_multiples(freqs, k, lattice):
    """A lattice (g, m) of the frequencies freqs_j ~ k_j g0: m is
    proportional to k, and each m_j g lies within 2 ulps of freqs_j."""
    g, m = lattice
    assert m.dtype == np.int64 and not m.flags.writeable
    assert np.array_equal(m * k[-1], k * m[-1])
    assert np.all(np.abs(m * g - freqs) <= 2.0 * np.spacing(freqs))


index_sets = st.lists(st.integers(1, 2000), min_size=1, max_size=40, unique=True).map(sorted)


class TestLattice:
    """``Spectrum.lattice``: (g, m) with freqs = m g, or None."""

    @settings(max_examples=200, deadline=None)
    @given(k=index_sets, gcd=st.integers(1, 10_000), dc=st.booleans())
    def test_integer_spectra_exact_gcd(self, k, gcd, dc):
        freqs = [0] * dc + [gcd * j for j in k]
        g, m = lattice_of(freqs)
        want = math.gcd(*freqs)
        assert g == want and m.tolist() == [f // want for f in freqs]
        assert (m * g).tolist() == freqs

    @settings(max_examples=200, deadline=None)
    # two draws whose Euclid step drifts past its tolerance without the
    # refit after each frequency
    @example(k=[554, 576, 699, 812], step=0.020783507547225254, digits=1, numerator=509, decimal=False)
    @example(k=[554, 576, 699, 812], step=1.0, digits=1, numerator=509, decimal=True)
    @given(
        k=index_sets,
        step=st.floats(1e-3, 1e3),
        digits=st.integers(1, 4),
        numerator=st.integers(1, 999),
        decimal=st.booleans(),
    )
    def test_float_and_decimal_lattices(self, k, step, digits, numerator, decimal):
        # fl(k g0), or decimals as a spectrum file types them (k times
        # numerator / 10^digits, correctly rounded): the lattice is found,
        # and it is the right one
        k = np.array(k)
        if decimal:
            freqs = np.array([float(f"{j * numerator}e-{digits}") for j in k.tolist()])
        else:
            freqs = k * step
        assert_lattice_of_multiples(freqs, k, lattice_of(freqs))

    @pytest.mark.parametrize("step", [0.1, 0.3, 0.7, 1.1, math.pi])
    @pytest.mark.parametrize("n", [2, 16, 128, 512])
    def test_consecutive_multiples(self, step, n):
        k = np.arange(1, n + 1)
        freqs = step * k
        assert_lattice_of_multiples(freqs, k, lattice_of(freqs))
        assert lattice_of(freqs)[1].tolist() == k.tolist()

    def test_builtins(self):
        lattices = {name: builtin_spectra(name).spectrum.lattice for name in ("smooth", "lacunary", "constant")}
        assert {name: (g, m.tolist()) for name, (g, m) in lattices.items()} == {
            "smooth": (1.0, [1, 10]),
            "lacunary": (1.0, [2**j for j in range(11)]),
            # no positive frequency: every step fits, and the lattice takes g = 1
            "constant": (1.0, [0]),
        }
        assert builtin_spectra("irrational").spectrum.lattice is None

    @pytest.mark.parametrize("seed", range(40))
    def test_irrational_ratios_have_none(self, seed):
        # uniform random gaps: one positive frequency is its own step, and
        # two or more have no lattice
        spec = random_function(np.random.default_rng(seed)).spectrum
        if np.count_nonzero(spec.freqs) > 1:
            assert spec.lattice is None
        else:
            assert spec.lattice[0] == spec.freqs[-1] and spec.lattice[1][-1] == 1

    @pytest.mark.parametrize(
        "freqs",
        [
            (1e-12, 2e-12, 1.0),  # the slow pair's gcd is below 1e-9 of the fastest
            (1.0, 3.0000000001),  # a near-lattice: its step misses 1 by 3e-11
            (1.0, math.sqrt(2.0)),
            (1.0, math.nan),
            (1.0, math.inf),
        ],
    )
    @pytest.mark.filterwarnings("error")  # a non-finite frequency returns before any lattice arithmetic
    def test_no_lattice(self, freqs):
        assert lattice_of(freqs) is None

    def test_empty_spectrum(self):
        g, m = Spectrum(1.0, ()).lattice
        assert g == 1.0 and m.shape == (0,)


class TestValidation:
    def test_valid_integer_ladder(self):
        spec = Spectrum.from_cos_sin(1.0, [(0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)])
        assert validate_spectrum(spec).ok

    def test_gap_violation(self):
        spec = Spectrum.from_cos_sin(1.0, [(0, 1, 0), (1, 1, 0), (1.5, 1, 0)])
        report = validate_spectrum(spec)
        assert not report.ok
        assert any(i.code == "gap" and i.index == 2 for i in report.issues)

    def test_ordering_violation(self):
        spec = Spectrum(
            1.0,
            tuple(
                Spectrum.from_cos_sin(1.0, [(l, 1, 0)]).entries[0]
                for l in (0.0, 2.0, 1.0)
            ),
        )
        report = validate_spectrum(spec)
        assert "ordering" in report.codes()

    def test_zero_amplitude_flagged(self):
        spec = Spectrum.from_cos_sin(1.0, [(1.0, 0.0, 0.0)])
        assert "zero-amplitude" in validate_spectrum(spec).codes()

    @pytest.mark.parametrize(
        "alpha, entries, want",
        [
            (0.0, [(1.0, 1.0, 0.0)], [("alpha", -1)]),
            (math.nan, [(1.0, 1.0, 0.0)], [("alpha", -1)]),
            (1.0, [(-1.0, 1.0, 0.0)], [("frequency", 0)]),
            (1.0, [(1.0, 1.0, 0.0), (math.inf, 1.0, 0.0)], [("frequency", 1)]),
            # the invalid first entry sets no predecessor, so only the zero's place is wrong
            (1.0, [(-1.0, 1.0, 0.0), (0.0, 1.0, 0.0)], [("frequency", 0), ("ordering", 1)]),
            (1.0, [(0.0, 1.0, 0.5)], [("dc-amplitude", 0)]),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_issue_codes(self, alpha, entries, want):
        # built directly: from_cos_sin sorts the entries and rejects a sine at 0
        spec = Spectrum(alpha, tuple(SpectrumEntry(*e) for e in entries))
        assert [(i.code, i.index) for i in validate_spectrum(spec).issues] == want

    @pytest.mark.parametrize(
        "terms",
        [
            [(1.0, math.nan, 0.0)],
            [(0.0, math.inf, 0.0)],
            [(1.0, 1.0, 0.0), (2.0, 0.0, -math.inf)],
        ],
    )
    def test_non_finite_coefficient_flagged(self, terms):
        report = validate_spectrum(Spectrum.from_cos_sin(1.0, terms))
        assert [(i.code, i.index) for i in report.issues] == [("amplitude", len(terms) - 1)]


class TestSerialization:
    def test_round_trip(self):
        spec = SMOOTH.spectrum
        entries = [{"lambda": e.freq, "cos": e.cos_coef, "sin": e.sin_coef} for e in spec.entries]
        again = spectrum_from_dict({"alpha": spec.alpha, "entries": entries})
        assert again == spec

    def test_loader_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"alpha": 1.0, "entries": [{"lambda": 1.0, "cos": 1.0}, {"lambda": 1.5, "cos": 1.0}]}
            )
        )
        with pytest.raises(SpectrumError):
            load_spectrum(path)
        f = load_spectrum(path, allow_invalid=True)
        assert len(f.spectrum.entries) == 2

    def test_save_load(self, tmp_path):
        path = tmp_path / "spec.json"
        entries = [{"lambda": 1.0, "cos": 1.0}, {"lambda": 10.0, "cos": 0.1}]
        path.write_text(json.dumps({"alpha": 1.0, "entries": entries}))
        again = load_spectrum(path)
        assert again.spectrum == SMOOTH.spectrum
