import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apsum import matrices, measures, strong_means
from apsum import experiment
from apsum.experiment import ExperimentConfig, run
from apsum.matrices import cesaro_matrix, explicit_matrix, osc_gm2_matrix, riesz_matrix, row_table
from apsum.measures import (
    T_LATTICE,
    PowerModulus,
    WindowGrid,
    modulus_omega,
)
from apsum.spectra import Spectrum, QuasiPeriodicFunction, power_mean
from apsum.strong_means import (
    THEOREMS,
    RatioRecord,
    ratio_sweep,
    strong_mean_rows,
)

from conftest import PREFIX_RTOL, head_tail_bounded, scaled, translate_difference

SMOOTH = QuasiPeriodicFunction(
    Spectrum.from_cos_sin(1.0, [(1.0, 1.0, 0.0), (10.0, 0.1, 0.0)])
)
CONST = QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, [(0.0, 1.0, 0.0)]))


def plain_cutoff_sum(f, x, gamma):
    """Independent enumeration oracle for S_gamma f(x): plain python."""
    s = 0.0
    for e in f.spectrum.entries:
        if e.freq <= gamma * (1 + 1e-12):
            s += e.cos_coef * math.cos(e.freq * x) + e.sin_coef * math.sin(e.freq * x)
    return s


def plain_tail(f, sigma):
    """Independent enumeration oracle for the amplitude mass above sigma."""
    return sum(
        math.hypot(e.cos_coef, e.sin_coef) for e in f.spectrum.entries if e.freq > sigma * (1 + 1e-12)
    )


def plain_strong_mean(f, x, weights, q, alpha):
    """Independent enumeration oracle: plain python, explicit tail sums."""
    fx = f(x)
    total = 0.0
    for k, a in enumerate(weights):
        if a == 0.0:
            continue
        total += a * abs(plain_cutoff_sum(f, x, alpha * k / 2.0) - fx) ** q
    return total ** (1.0 / q)


def cesaro_row(n):
    """Row n of the Cesaro family, read from its one-row table."""
    return cesaro_matrix().table([n])[0][0, : n + 1]


def row_mean(f, x, row, q):
    """H of one weight row at one x: strong_mean_rows of a one-row explicit
    matrix, read with power_mean."""
    return strong_mean_rows(f, [x], explicit_matrix([row]).rows([0]), [q]).item()


def plain_bracket_mean(f, w, weights, q, alpha, divisor):
    """Scalar loop over k of [w(pi/(k+1)) + tail(alpha k / divisor)]^q."""
    total = 0.0
    for k, a in enumerate(weights):
        if a == 0.0:
            continue
        total += a * (w(math.pi / (k + 1)) + plain_tail(f, alpha * k / divisor)) ** q
    return total ** (1.0 / q)


def ragged_rows(rng, count):
    """Explicit stochastic rows with zero holes; row n has 1 to n + 4
    entries, so some rows are longer than n + 1."""
    rows = []
    for n in range(count):
        size = int(rng.integers(1, n + 5))
        row = rng.uniform(0.0, 1.0, size) * (rng.uniform(size=size) < 0.6)
        if not row.any():
            row[int(rng.integers(size))] = 1.0
        rows.append(row / row.sum())
    return rows


def random_case(seed):
    """Random gap-alpha function, one weight row, a point x, and cutoffs at
    0, on every frequency (exact and one ulp below), at the midpoints
    between frequencies, and above the top frequency."""
    rng = np.random.default_rng(seed)
    n_terms = int(rng.integers(1, 5))
    alpha = float(rng.uniform(0.4, 1.5))
    lams = np.cumsum(rng.uniform(alpha, 2 * alpha, n_terms)) + alpha
    terms = [
        (float(l), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for l in lams
    ]
    f = QuasiPeriodicFunction(Spectrum.from_cos_sin(alpha, terms))
    width = int(rng.integers(1, 9))
    row = rng.dirichlet(np.ones(width))
    x = float(rng.uniform(-3, 3))
    cutoffs = np.concatenate(
        [
            [0.0],
            lams,
            np.nextafter(lams, 0.0),
            0.5 * (lams[1:] + lams[:-1]),
            lams[-1] + rng.uniform(0.0, 3.0, 2),
        ]
    )
    return f, row, x, alpha, cutoffs


@st.composite
def ragged_weights_and_values(draw):
    """Ragged weight rows of 1 to 10 entries with interior and trailing
    zeros (a row may be all zero), and one value row per weight row as wide
    as the longest, zeros included."""
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    rows = draw(st.lists(st.lists(entry, min_size=1, max_size=10), min_size=1, max_size=6))
    width = max(map(len, rows))
    value = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    values = draw(
        st.lists(
            st.lists(value, min_size=width, max_size=width),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    return [np.array(r) / (sum(r) or 1.0) for r in rows], np.array(values)


def mp_power_mean(weights, values, q):
    """( sum w v^q )^(1/q) over the weighted entries, in 50-digit mpmath."""
    with mpmath.workdps(50):
        total = mpmath.fsum(
            mpmath.mpf(w) * mpmath.mpf(v) ** q for w, v in zip(weights, values) if w > 0
        )
        return float(total ** (1 / mpmath.mpf(q)))


class TestPowerMean:
    def test_single_mass(self):
        assert power_mean(np.array([1.0]), np.array([0.7]), 0.5) == pytest.approx(0.7)

    def test_zero_values(self):
        assert power_mean(np.array([0.5, 0.5]), np.array([0.0, 0.0]), 2.0) == 0.0

    def test_width_zero_table(self):
        means = power_mean(np.zeros((3, 0)), np.zeros((2, 1, 0)), 1.5)
        assert means.shape == (2, 3) and not means.any()

    @settings(max_examples=200, deadline=None)
    @given(case=ragged_weights_and_values(), q=st.floats(0.05, 8.0))
    def test_table_rows_equal_one_row_calls(self, case, q):
        rows, values = case
        # the table's trailing zero-weight column reads a value of its own
        table, _ = row_table(rows)
        means = power_mean(table, np.pad(values, ((0, 0), (0, 1)), constant_values=7.0), q)
        assert means.shape == (len(rows),)
        for row, v, mean in zip(rows, values, means):
            one = power_mean(row, v[: row.size], q)
            assert isinstance(one, float) and one == mean
            live = v[: row.size][row > 0.0]
            if not live.any():
                assert one == 0.0
            else:
                assert one == pytest.approx(mp_power_mean(row, v, q), rel=1e-13, abs=0.0)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        q_pair=st.tuples(st.floats(0.3, 4.0), st.floats(0.3, 4.0)),
    )
    def test_monotone_in_q(self, seed, q_pair):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        w = rng.dirichlet(np.ones(n))
        v = rng.uniform(0.0, 3.0, n)
        q1, q2 = sorted(q_pair)
        m1, m2 = power_mean(w, v, q1), power_mean(w, v, q2)
        assert m1 <= m2 * (1 + 1e-12) + 1e-12

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000), s=st.floats(-4.0, 4.0))
    def test_amplitude_homogeneity(self, seed, s):
        f, row, x, alpha, _ = random_case(seed)
        m = row_mean(f, x, row, 1.7)
        ms = row_mean(scaled(f, s), x, row, 1.7)
        assert ms == pytest.approx(abs(s) * m, rel=1e-12, abs=1e-12)


class TestStrongMean:
    def test_single_mass_row(self):
        row = np.zeros(6)
        row[5] = 1.0
        got = row_mean(SMOOTH, 0.4, row, 2.0)
        want = abs(
            plain_strong_mean(SMOOTH, 0.4, row, 2.0, 1.0)
        )
        assert got == pytest.approx(want, rel=1e-14)

    def test_row_past_spectrum_gives_zero(self):
        row = np.zeros(25)
        row[20] = 0.5
        row[24] = 0.5
        assert row_mean(SMOOTH, 0.7, row, 1.0) == 0.0

    def test_cesaro_enumeration_oracle(self):
        got = row_mean(SMOOTH, 0.0, cesaro_row(4), 2.0)
        want = plain_strong_mean(SMOOTH, 0.0, [0.2] * 5, 2.0, 1.0)
        assert got == pytest.approx(want, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_random_against_enumeration(self, seed):
        f, row, x, alpha, _ = random_case(seed)
        got = row_mean(f, x, row, 1.3)
        want = plain_strong_mean(f, x, row, 1.3, alpha)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestCutoffLadder:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_ladder_against_enumeration(self, seed):
        f, _, x, _, cutoffs = random_case(seed)
        atol = 1e-12 * f.spectrum.tails[0]
        np.testing.assert_allclose(
            f.partial_sums(x, cutoffs),
            [plain_cutoff_sum(f, x, g) for g in cutoffs],
            rtol=0.0,
            atol=atol,
        )
        np.testing.assert_allclose(
            f.spectrum.tail_mass(cutoffs),
            [plain_tail(f, s) for s in cutoffs],
            rtol=0.0,
            atol=atol,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(0, 12),
        q=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_means_against_scalar_loops(self, seed, n, q):
        f, _, x, alpha, _ = random_case(seed)
        atol = 1e-12 * f.spectrum.tails[0]
        dyadic = np.zeros(2 * n + 1)
        dyadic[n:] = 1.0 / (n + 1)
        w = PowerModulus(1.0, 0.5)
        (rec,) = ratio_sweep(f, "prop4", [n], [q], [(x, w)]).records()
        assert rec.lhs == pytest.approx(
            plain_strong_mean(f, x, dyadic, q, alpha), rel=1e-12, abs=atol
        )
        row = cesaro_row(n)
        for theorem, divisor in (("thm6", 2.0), ("thm5", 8.0)):
            (rec,) = ratio_sweep(f, theorem, [n], [q], [(x, w)], cesaro_matrix()).records()
            assert rec.rhs == pytest.approx(
                plain_bracket_mean(f, w, row, q, alpha, divisor), rel=1e-12, abs=atol
            )

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            SMOOTH.partial_sums(0.0, [1.0, -0.5])
        with pytest.raises(ValueError):
            SMOOTH.spectrum.tail_mass(-1.0)


class TestDyadic:
    """The prop4 lhs: the uniform strong mean over the dyadic block [n, 2n]."""

    @staticmethod
    def lhs(x, n_values, q):
        records = ratio_sweep(SMOOTH, "prop4", n_values, [q], [(x, PowerModulus(1.0))]).records()
        return [rec.lhs for rec in records]

    def test_n0_single_term(self):
        (got,) = self.lhs(0.3, [0], 1.0)
        assert got == pytest.approx(abs(0.0 - SMOOTH(0.3)), rel=1e-14)

    def test_spectrum_cleared(self):
        assert self.lhs(0.9, [20], 2.0) == [0.0]

    def test_matches_explicit_uniform_row(self):
        for q in (0.5, 1.0, 2.0):
            for n, a in zip((1, 3, 7), self.lhs(0.7, (1, 3, 7), q)):
                row = np.zeros(2 * n + 1)
                row[n : 2 * n + 1] = 1.0 / (n + 1)
                assert a == pytest.approx(row_mean(SMOOTH, 0.7, row, q), rel=1e-12)

    def test_table_equals_padded_rows(self):
        ns = [3, 0, 7, 1]
        rows = []
        for n in ns:
            rows.append(np.zeros(2 * n + 1))
            rows[-1][n:] = 1.0 / (n + 1)
        table, _ = row_table(rows)
        assert strong_means._dyadic_table(ns).tolist() == table.tolist()
        with pytest.raises(ValueError, match="n must be >= 0, got -2"):
            strong_means._dyadic_table([1, -2, -3])

    def test_small_spectrum_enumeration(self):
        n = 3
        row = np.zeros(2 * n + 1)
        row[n:] = 1.0 / (n + 1)
        (got,) = self.lhs(0.2, [n], 1.0)
        want = plain_strong_mean(SMOOTH, 0.2, row, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-13)


def rhs_values(f, theorem, n_values, q, matrix=None, w=None, **kwargs):
    """The rhs of each n in the sweep of one q; thm2 reads no x or w."""
    x, x_grid = (None, (0.0,)) if theorem == "thm2" else (0.0, None)
    sweep = ratio_sweep(f, theorem, n_values, [q], [(x, w)], matrix, x_grid, p=2.0, **kwargs)
    return [rec.rhs for rec in sweep.records()]


class TestBoundExpressions:
    def test_dyadic_rhs_components(self):
        w = PowerModulus(2.0, 1.0)
        # n = 30 clears the spectrum: the tail is zero
        cleared, first = rhs_values(SMOOTH, "prop4", [30, 0], 1.0, w=w)
        assert cleared == pytest.approx(w(math.pi / 31))
        assert first == pytest.approx(w(math.pi) + 1.1)

    def test_bracket_single_mass(self):
        w = PowerModulus(1.0, 1.0)
        row = np.zeros(4)
        row[3] = 1.0
        want = w(math.pi / 4) + plain_tail(SMOOTH, 1.5)
        (got,) = rhs_values(SMOOTH, "thm6", [0], 2.0, explicit_matrix([row]), w)
        assert got == pytest.approx(want, rel=1e-14)

    def test_constant_function_drops_tails(self):
        w = PowerModulus(1.0, 1.0)
        want = sum(0.2 * w(math.pi / (k + 1)) ** 2 for k in range(5)) ** 0.5
        (got,) = rhs_values(CONST, "thm6", [4], 2.0, cesaro_matrix(), w)
        assert got == pytest.approx(want, rel=1e-14)

    def test_gm2_divisor_floor_vs_literal(self):
        # k in [8, 11] puts the first frequency between alpha*k/2^(1+floor(c))
        # and alpha*k/2^(1+c), so the two conventions give different tails
        w = PowerModulus(1.0, 1.0)
        row = cesaro_row(10)
        a = rhs_values(SMOOTH, "thm5", [10], 1.0, cesaro_matrix(), w, c=2.5)
        b = rhs_values(
            SMOOTH, "thm5", [10], 1.0, cesaro_matrix(), w, c=2.5, thm5_literal_exponent=True
        )
        # tails at alpha k / 8 and at alpha k / 2^3.5
        assert a == [pytest.approx(plain_bracket_mean(SMOOTH, w, row, 1.0, 1.0, 8.0), rel=1e-14)]
        assert b == [pytest.approx(plain_bracket_mean(SMOOTH, w, row, 1.0, 1.0, 2.0**3.5))]
        assert a != b  # the two conventions genuinely differ mid-spectrum

    @pytest.mark.parametrize("c", [1023.0, 1e308])
    @pytest.mark.parametrize("literal", [False, True])
    def test_gm2_huge_c_cuts_at_zero(self, c, literal):
        # 2^(1+c) overflowed; 2^-(1+c) is 0 (or below every alpha k / freq)
        w = PowerModulus(1.0, 1.0)
        row = cesaro_row(10)
        got = rhs_values(
            SMOOTH, "thm5", [10], 1.0, cesaro_matrix(), w, c=c, thm5_literal_exponent=literal
        )
        want = plain_bracket_mean(SMOOTH, w, row, 1.0, 1.0, math.inf)
        assert got == [pytest.approx(want, rel=1e-14)]

    def test_cesaro_bracket_enumeration(self):
        # independent plain-python enumeration of the bracket power mean
        w = PowerModulus(1.0, 1.0)
        n = 10
        for theorem, divisor in (("thm6", 2.0), ("thm5", 8.0)):
            total = 0.0
            for k in range(n + 1):
                bracket = w(math.pi / (k + 1)) + plain_tail(SMOOTH, 1.0 * k / divisor)
                total += (1.0 / (n + 1)) * bracket**2
            (got,) = rhs_values(SMOOTH, theorem, [n], 2.0, cesaro_matrix(), w)
            assert got == pytest.approx(math.sqrt(total), rel=1e-13)

    def test_rhs_nonincreasing_in_n_for_cesaro(self):
        w = PowerModulus(1.0, 1.0, cap=2.0)
        vals = rhs_values(SMOOTH, "thm6", range(1, 40), 1.0, cesaro_matrix(), w)
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12

    def test_dyadic_rhs_nonincreasing_for_builtins(self):
        from apsum.experiment import builtin_spectra

        w = PowerModulus(1.0, 1.0, cap=2.0)
        for name in ("smooth", "lacunary"):
            vals = rhs_values(builtin_spectra(name), "prop4", range(0, 64), 1.0, w=w)
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-12

    def test_omega_rhs_constant_function(self):
        assert rhs_values(CONST, "thm2", [3], 1.0, cesaro_matrix()) == [0.0]

    def test_omega_rhs_cesaro_enumeration(self):
        (got,) = rhs_values(SMOOTH, "thm2", [4], 2.0, cesaro_matrix())
        oms = [modulus_omega(SMOOTH, math.pi / (k + 1), 2.0) for k in range(5)]
        want = math.sqrt(sum(0.2 * om**2 for om in oms))
        assert got == pytest.approx(want, rel=1e-12)


class TestRatioSeries:
    """The (x, q) series of ratio_sweep's records and the verdicts run() takes on them."""

    def test_constant_function_all_zero_flagged(self):
        w = PowerModulus(0.0)
        records = ratio_sweep(CONST, "prop4", range(1, 6), [1.0], [(0.3, w)]).records()
        assert all(r.ratio == 0.0 for r in records)
        assert all("zero-over-zero" in r.flags for r in records)
        assert max(r.ratio for r in records) == 0.0

    def test_single_mass_rows_match_pointwise_deviation(self):
        rows = [np.eye(6)[min(n, 5)] for n in range(6)]
        m = explicit_matrix(rows)
        w = PowerModulus(1.0, 1.0)
        for rec in ratio_sweep(SMOOTH, "thm6", range(0, 6), [2.0], [(0.4, w)], m).records():
            k = min(rec.n, 5)
            dev = abs(
                plain_strong_mean(SMOOTH, 0.4, np.eye(6)[k], 2.0, 1.0)
            )
            bracket = w(math.pi / (k + 1)) + plain_tail(SMOOTH, k / 2.0)
            assert rec.lhs == pytest.approx(dev, rel=1e-12)
            assert rec.rhs == pytest.approx(bracket, rel=1e-12)

    def test_side_condition_reported(self):
        # row n is [1, 0, ..., 0]: a[n, 0] never heads to zero
        sticky = {"type": "explicit", "rows": [[1.0] + [0.0] * n for n in range(9)]}
        data = {
            "spectrum": {"builtin": "smooth"},
            "theorem": "thm6",
            "matrix": sticky,
            "majorant": {"type": "power", "C": 1.0},
            "n_range": [1, 8],
        }
        assert run(ExperimentConfig.from_dict(data)).summary["side_condition_ok"] is False
        # prop4 reads no matrix, even one the config carries for strong-mean
        prop4 = ExperimentConfig.from_dict(dict(data, theorem="prop4"))
        assert run(prop4).summary["side_condition_ok"] is None

    def test_thm2_small_sweep_bounded(self):
        grid = WindowGrid(u_samples=128)
        xg = tuple(np.linspace(0.0, 2 * math.pi, 8, endpoint=False))
        records = ratio_sweep(
            SMOOTH, "thm2", range(1, 13), [2.0], [(None, None)], cesaro_matrix(), xg, 2.0, grid
        ).records()
        assert max(r.ratio for r in records) <= 50.0
        assert head_tail_bounded(records, 4, 2.0)

    def test_head_tail_flags_only_rising_ratios(self):
        def bounded(ratios, head_end, factor):
            # the verdict of run() on one (x, q) series, which its
            # per-record oracle shares
            records = [RatioRecord(0.0, 1.0, n, r, 1.0, r, ()) for n, r in enumerate(ratios, 1)]
            got = experiment._head_tail_bounded(
                np.array(ratios), range(1, len(ratios) + 1), head_end, factor
            )
            assert got == head_tail_bounded(records, head_end, factor)
            return got

        # N = 16: the blocks are n in (4, 8] and (8, 16]; every tail below
        # passes twice the head max 1 (n <= 4)
        assert bounded([1.0] * 4 + [3.0] * 4 + [2.0] * 8, 4, 2.0)
        assert bounded([1.0] * 4 + [3.0] * 4 + [3.0] * 8, 4, 2.0)
        assert not bounded([1.0] * 4 + [2.5] * 4 + [3.0] * 8, 4, 2.0)
        # a rising tail within the 1e-12 slack of twice the head passes
        assert bounded([1.0] * 4 + [1.5] * 4 + [2.0 + 5e-13] * 8, 4, 2.0)
        # a block without ratios leaves the head/tail test to decide alone
        assert not bounded([1.0] * 4 + [math.nan] * 4 + [3.0] * 8, 4, 2.0)
        assert bounded([1.0] * 4 + [math.nan] * 4 + [3.0] * 8, 4, 3.0)

    def test_thm2_norms_each_shift_once(self, monkeypatch):
        rows, setups, omega_calls = [], [], []
        window_norm = measures._window_norm
        omega = strong_means.modulus_omega

        def counted_window_norm(lams, coefs, *args):
            rows.append(coefs)
            return window_norm(lams, coefs, *args)

        def counted_omega(*args, **kwargs):
            omega_calls.append(args[1])
            return omega(*args, **kwargs)

        for name in ("_lag_means", "_gram_means"):
            build = getattr(measures, name)

            def counted_build(*args, name=name, build=build):
                setups.append(name)
                return build(*args)

            monkeypatch.setattr(measures, name, counted_build)
        monkeypatch.setattr(measures, "_window_norm", counted_window_norm)
        monkeypatch.setattr(strong_means, "modulus_omega", counted_omega)
        ratio_sweep(
            SMOOTH,
            "thm2",
            range(1, 7),
            [2.0],
            [(None, None)],
            cesaro_matrix(),
            (0.0, 1.0),
            2.0,
            WindowGrid(u_samples=32, refine=False),
        )
        # rows 1..6 weigh k = 0..6: the per-delta shift sets of pi/(k+1)
        want = set()
        for k in range(7):
            delta = math.pi / (k + 1)
            ts = [i * T_LATTICE for i in range(1, int(delta / T_LATTICE) + 1)]
            want.update(ts if ts and ts[-1] >= delta else ts + [delta])
        assert len(omega_calls) == 1
        # one window-norm call, with one window setup (one set of p = 2
        # window means, on either route), norms one coefficient row per
        # shift: the row of f(. + t) - f
        assert len(rows) == 1 and len(setups) == 1
        assert rows[0].shape[0] == len(want)

        def row(g):
            return tuple((e.cos_coef, e.sin_coef) for e in g.spectrum.entries)

        got = sorted(tuple(map(tuple, r.tolist())) for r in rows[0])
        assert got == sorted(row(translate_difference(SMOOTH, t)) for t in want)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), q=st.sampled_from([0.5, 1.3, 2.0]))
    def test_sweep_matches_scalar_oracles(self, seed, q):
        f, _, x, alpha, _ = random_case(seed)
        rows = ragged_rows(np.random.default_rng(seed + 1), 8)
        m = explicit_matrix(rows)
        w = PowerModulus(1.3, 0.7)
        xg = (x, x + 0.5)
        grid = WindowGrid(u_samples=4, refine=False)
        oms = [modulus_omega(f, math.pi / (k + 1), 2.0, grid) for k in range(11)]
        atol = 1e-12 * f.spectrum.tails[0]
        for theorem in THEOREMS:
            for rec in ratio_sweep(f, theorem, range(8), [q], [(x, w)], m, xg, 2.0, grid).records():
                n = rec.n
                if theorem == "prop4":
                    row = np.zeros(2 * n + 1)
                    row[n:] = 1.0 / (n + 1)
                    lhs = plain_strong_mean(f, x, row, q, alpha)
                    rhs = w(math.pi / (n + 1)) + plain_tail(f, alpha * n / 2.0)
                elif theorem == "thm2":
                    lhs = max(plain_strong_mean(f, xx, rows[n], q, alpha) for xx in xg)
                    rhs = power_mean(rows[n], np.array(oms[: rows[n].size]), q)
                else:
                    lhs = plain_strong_mean(f, x, rows[n], q, alpha)
                    divisor = 8.0 if theorem == "thm5" else 2.0
                    rhs = plain_bracket_mean(f, w, rows[n], q, alpha, divisor)
                assert rec.lhs == pytest.approx(lhs, rel=1e-12, abs=atol)
                assert rec.rhs == pytest.approx(rhs, rel=1e-12, abs=atol)

    def test_sweep_equals_series_per_combo(self):
        m = cesaro_matrix()
        xs, qs = (0.0, 0.7, 0.0), (0.5, 1.0, 2.0)
        ws = {0.0: PowerModulus(1.0), 0.7: PowerModulus(0.5, 0.5)}
        grid = WindowGrid(u_samples=16, refine=False)
        xg = (0.0, 1.0, 2.5)
        for theorem in ("prop4", "thm2", "thm5", "thm6"):
            points = [(x, ws[x]) for x in xs]
            got = ratio_sweep(
                SMOOTH, theorem, range(0, 9), qs, points, m, xg, 2.0, grid, c=2.5
            ).records()
            want = [
                rec
                for point in points
                for q in qs
                for rec in ratio_sweep(
                    SMOOTH, theorem, range(0, 9), [q], [point], m, xg, 2.0, grid, c=2.5
                ).records()
            ]
            assert got == want
            assert [(r.x, r.q, r.n) for r in got] == [
                (x, q, n) for x in xs for q in qs for n in range(0, 9)
            ]
        assert ratio_sweep(SMOOTH, "thm6", range(4), [], [(0.0, ws[0.0])], m).records() == []
        assert ratio_sweep(SMOOTH, "thm6", range(4), qs, [], m).records() == []

    def test_empty_n_values_give_empty_series(self):
        grid = WindowGrid(u_samples=8, refine=False)
        points = [(0.0, PowerModulus(1.0)), (0.7, PowerModulus(1.0))]
        for theorem in THEOREMS:
            records = ratio_sweep(
                SMOOTH, theorem, [], (1.0, 2.0), points, cesaro_matrix(), (0.0, 1.0), 2.0, grid
            ).records()
            assert records == []

    def test_requires_inputs(self):
        with pytest.raises(ValueError):
            ratio_sweep(SMOOTH, "thm6", [1], [1.0], [(0.0, PowerModulus(1.0))])
        with pytest.raises(ValueError):
            ratio_sweep(SMOOTH, "prop4", [1], [1.0], [(0.0, None)])
        with pytest.raises(ValueError):
            ratio_sweep(SMOOTH, "nope", [1], [1.0], [(0.0, PowerModulus(1.0))])
        with pytest.raises(ValueError, match="pointwise"):
            ratio_sweep(SMOOTH, "prop4", [1], [1.0], [(None, PowerModulus(1.0))])
        for x_grid, p, match in ((None, 2.0, "x_grid"), ((), 2.0, "x_grid"), ((0.0,), None, "exponent p")):
            with pytest.raises(ValueError, match=match):
                ratio_sweep(SMOOTH, "thm2", [1], [1.0], [(None, None)], cesaro_matrix(), x_grid, p)
        for qs, c in (([1.0, 0.0], 2.0), ([-1.0], 2.0), ([1.0], 1.0), ([1.0], math.nan)):
            with pytest.raises(ValueError):
                ratio_sweep(SMOOTH, "prop4", [1], qs, [(0.0, PowerModulus(1.0))], c=c)


def dense_weight_rows(p, ns):
    """The table of the rows a[n, k] = p_k [k <= n] / P_n, P the prefix
    sums of p: the dense oracle of the prefix route."""
    sums = np.cumsum(p)
    ns = np.asarray(ns)
    return np.where(np.arange(p.size) <= ns[:, None], p, 0.0) / sums[ns][:, None]


@st.composite
def weight_sweeps(draw):
    """Weights p with zeros after p_0 > 0, rows n in any order with
    repeats, and 1 to 3 lanes of values that rise or fall across hundreds
    of decades, with zeros, each lane with its own span and direction; at
    times an inf or NaN at one k of one lane."""
    size = draw(st.integers(1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.uniform(0.01, 1.0, size) * (rng.uniform(size=size) < draw(st.floats(0.2, 1.0)))
    p[0] = rng.uniform(0.01, 1.0)
    lanes = draw(st.integers(1, 3))
    decades = draw(st.lists(st.floats(0.0, 300.0), min_size=lanes, max_size=lanes))
    exps = np.array([np.linspace(-d, 0.0, size) for d in decades]) + rng.uniform(-2.0, 2.0, (lanes, size))
    exps[rng.uniform(size=lanes) < 0.5] *= -1.0  # rising from 10^-d, or falling
    exps -= exps.max(axis=1, keepdims=True)
    values = 10.0**exps * (rng.uniform(size=(lanes, size)) < 0.9)
    bad = draw(st.sampled_from([None, None, math.inf, math.nan]))
    if bad is not None:
        values[rng.integers(lanes), rng.integers(size)] = bad
    ns = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20))
    return p, np.array(ns), values


class TestPrefixRoute:
    """The row means of Riesz-type rows from prefix sums of the weight
    sequence, against power_mean of their dense table."""

    @settings(max_examples=300, deadline=None)
    @given(case=weight_sweeps(), q=st.one_of(st.floats(0.05, 8.0), st.just(math.inf)))
    def test_matches_dense_power_mean(self, case, q):
        p, ns, values = case
        got = matrices._prefix_means(p, np.cumsum(p), ns, values, q)
        with np.errstate(invalid="ignore"):  # an inf top: inf / inf
            want = power_mean(dense_weight_rows(p, ns), values[:, None, :], q)
            close = np.abs(got - want) <= PREFIX_RTOL * want
        assert got.shape == want.shape == (len(values), len(ns))
        # an inf or NaN top gives NaN at finite q, inf or NaN at q = inf
        assert np.all(close | (got == want) | (np.isnan(got) & np.isnan(want)))
        # the largest row is the last of its block: power_mean's terms, bit for bit
        last = ns == ns.max()
        assert np.array_equal(got[:, last], want[:, last], equal_nan=True)

    @pytest.mark.parametrize("q", [2.0, 7.0])
    def test_rising_sweep_keeps_every_row(self, q):
        # values rising from 1e-200 to 1 over Cesaro rows n < 200: one scale
        # for every row read 0 on the first 44 rows at q = 2 and 155 at q = 7
        ns = np.arange(200)
        p = np.ones(200)
        values = np.logspace(-200.0, 0.0, 200)[None]
        got = matrices._prefix_means(p, np.cumsum(p), ns, values, q)[0]
        want = [mp_power_mean(np.full(n + 1, 1.0 / (n + 1)), values[0, : n + 1], q) for n in ns]
        assert got.tolist() == pytest.approx(want, rel=PREFIX_RTOL, abs=0.0)

    @pytest.mark.parametrize(
        "matrix",
        [cesaro_matrix(), osc_gm2_matrix(), riesz_matrix(exponent=3.0), riesz_matrix(exponent=-1.5)],
        ids=["cesaro", "osc-gm2", "riesz-3", "riesz--1.5"],
    )
    def test_family_rows_against_mpmath(self, matrix):
        ns = np.array([0, 1, 5, 37, 120])
        rows = matrix.rows(ns)
        p, sums = rows.p, rows.sums
        rng = np.random.default_rng(5)
        values = 10.0 ** rng.uniform(-150.0, 0.0, (2, p.size))
        table, sizes = matrix.table(ns)
        for q in (0.3, 1.0, 7.0):
            got = matrices._prefix_means(p, sums, ns, values, q)
            for i, v in enumerate(values):
                want = [mp_power_mean(row[:size], v[:size], q) for row, size in zip(table, sizes)]
                assert got[i].tolist() == pytest.approx(want, rel=PREFIX_RTOL, abs=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("q", [0.5, 2.0, math.inf])
    def test_non_finite_top_is_power_means(self, bad, q):
        # rows from k = 3 on see the inf or NaN; the rows before keep
        # their means, and every row is done in finite time
        ns = np.array([5, 0, 2, 3, 9])
        p = np.ones(10)
        values = np.vstack([np.linspace(0.1, 1.0, 10), np.linspace(1e-300, 1.0, 10)])
        values[0, 3] = bad
        got = matrices._prefix_means(p, np.cumsum(p), ns, values, q)
        with np.errstate(invalid="ignore"):
            want = power_mean(dense_weight_rows(p, ns), values[:, None, :], q)
        assert np.isnan(got[0, [0, 3, 4]]).tolist() == [q < math.inf or math.isnan(bad)] * 3
        np.testing.assert_allclose(got, want, rtol=PREFIX_RTOL, atol=0.0)  # NaN where NaN

    def test_overflowing_bracket_ends_the_run(self):
        # w(pi) = 1e308 pi overflows to inf: every rhs is NaN, as the dense
        # table gave it, so every record is flagged infinite-ratio
        cfg = ExperimentConfig.from_dict({
            "spectrum": {"builtin": "smooth"}, "theorem": "thm6", "matrix": {"builtin": "cesaro"},
            "majorant": {"type": "power", "C": 1e308}, "q": [1.0, 2.0], "x": [0.0, 0.7],
            "n_range": [1, 8], "blowup_head": 8,
        })
        with np.errstate(over="ignore"):
            report = run(cfg)
        assert len(report.records) == 32
        for r in report.records:
            assert math.isnan(r.rhs) and r.ratio == math.inf and r.flags == ("infinite-ratio",)
            assert 0.0 < r.lhs < math.inf
        assert report.summary["max_ratio"] == math.inf and report.summary["regression_ok"] is False

    def test_overflowing_riesz_rows_keep_the_table(self):
        # 35^200 overflows: the weights are refused and the table divides
        # each row by its largest power first
        m = riesz_matrix(exponent=200.0)
        assert isinstance(m.rows(range(34)), matrices._WeightRows)
        assert isinstance(m.rows(range(35)), matrices._TableRows)
        assert isinstance(explicit_matrix([[1.0]]).rows([0]), matrices._TableRows)


def _record(x, q, n, lhs, rhs):
    """One record of lhs and rhs, the per-record rule records are built by."""
    if rhs > 0.0:
        return RatioRecord(x, q, n, lhs, rhs, lhs / rhs, ())
    if lhs == 0.0:
        return RatioRecord(x, q, n, lhs, rhs, 0.0, ("zero-over-zero",))
    return RatioRecord(x, q, n, lhs, rhs, math.inf, ("infinite-ratio",))


SIDE_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e308, math.inf, math.nan]),
)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 4)),
    data=st.data(),
)
def test_records_match_per_record_rule(shape, data):
    # repr tells NaN, -0.0 and the flags apart: bit for bit
    nq, nx, nn = shape
    qs = [0.5 * (j + 1) for j in range(nq)]
    xs = [None] if nx == 0 else [0.25 * i for i in range(nx)]
    ns = list(range(3, 3 + nn))
    size = nq * len(xs) * nn
    lhs, rhs = (
        np.array(data.draw(st.lists(SIDE_VALUES, min_size=size, max_size=size))).reshape(nq, len(xs), nn)
        for _ in range(2)
    )
    # a thm2 lhs, one x lane, broadcasts against the rhs of every x
    for left in (lhs, lhs[:, :1]):
        got = strong_means._sweep_of(xs, qs, ns, left, rhs).records()
        want = [
            _record(x, q, n, left[j, min(i, left.shape[1] - 1), k].item(), rhs[j, i, k].item())
            for i, x in enumerate(xs)
            for j, q in enumerate(qs)
            for k, n in enumerate(ns)
        ]
        assert repr(got) == repr(want)
