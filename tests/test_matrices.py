import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apsum import matrices
from apsum.matrices import (
    CLASS_NAMES,
    ROW_SUM_TOL,
    ClassReport,
    MatrixError,
    SummabilityMatrix,
    cesaro_matrix,
    class_constants,
    class_membership,
    explicit_matrix,
    load_matrix,
    matrix_from_dict,
    osc_gm2_matrix,
    riesz_matrix,
    side_condition,
)
from apsum.spectra import power_mean


# The one-row formulas of the families: the oracle of their tables.
def cesaro_row(n):
    return np.full(n + 1, 1.0 / (n + 1))


def osc_gm2_row(n):
    b = np.ones(n + 1)
    k = 1
    while k <= n:  # the dyadic holes 1, 3, 7, 15, ...
        b[k] = 0.0
        k = 2 * k + 1
    return b / b.sum()


def riesz_row(n, exponent):
    head = (np.arange(n + 1) + 1.0) ** exponent
    return head / head.sum()


def row_of(matrix, n):
    """Row n of a matrix, read from its one-row table."""
    table, sizes = matrix.table([n])
    return table[0, : sizes[0]]


def brute_rbvs(row):
    """Independent scan straight from the defining inequality."""
    a = list(map(float, row)) + [0.0]
    worst = 0.0
    for m in range(len(a)):
        var = sum(abs(a[k] - a[k + 1]) for k in range(m, len(a) - 1))
        if a[m] > 0:
            worst = max(worst, var / a[m])
        elif var > 0:
            return math.inf
    return worst


def brute_gm(row):
    a = list(map(float, row)) + [0.0]

    def at(i):
        return a[i] if i < len(a) else 0.0

    worst = 0.0
    for m in range(1, len(a) + 1):
        var = sum(abs(at(k) - at(k + 1)) for k in range(m, 2 * m))
        if var == 0:
            continue
        if at(m) == 0:
            return math.inf
        worst = max(worst, var / at(m))
    return worst


def brute_ms(row):
    a = list(map(float, row)) + [0.0]
    if all(a[k] >= a[k + 1] for k in range(len(a) - 1)):
        return 1.0
    worst = 1.0
    for k in range(len(a) - 1):
        if a[k] > 0:
            worst = max(worst, a[k + 1] / a[k])
        elif a[k + 1] > 0:
            return math.inf
    return worst


def brute_gm2(row, c):
    a = list(map(float, row)) + [0.0]

    def at(i):
        return a[i] if i < len(a) else 0.0

    worst = 0.0
    for m in range(1, len(a) + 1):
        var = sum(abs(at(k) - at(k + 1)) for k in range(m, 2 * m))
        if var == 0:
            continue
        lo = max(1, math.floor(m / c))
        denom = sum(at(k) / k for k in range(lo, math.floor(c * m) + 1))
        if denom == 0:
            return math.inf
        worst = max(worst, var / denom)
    return worst


def constant(class_name, row, c=2.0):
    """The class constant of one row: a one-row class_constants call."""
    return float(class_constants(class_name, [row], c)[0])


def random_rows(rng, count, kind="mixed"):
    rows = []
    for _ in range(count):
        n = int(rng.integers(1, 12))
        vals = rng.uniform(0.05, 1.0, n)
        if kind == "nonincreasing":
            vals = np.sort(vals)[::-1]
        elif kind == "mixed" and rng.random() < 0.4:
            vals[rng.integers(0, n)] = 0.0
        s = vals.sum()
        if s == 0.0:
            vals[0] = 1.0
            s = 1.0
        rows.append(vals / s)
    return rows


class TestCesaroRow:
    def test_n0(self):
        np.testing.assert_array_equal(row_of(cesaro_matrix(), 0), [1.0])

    def test_n2(self):
        np.testing.assert_allclose(row_of(cesaro_matrix(), 2), [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)

    def test_row_sum(self):
        assert row_of(cesaro_matrix(), 10).sum() == pytest.approx(1.0, abs=1e-15)


class TestMS:
    """A row is ms (nonincreasing) iff its ms constant is 1."""

    def test_cesaro_is_ms(self):
        assert constant("ms", cesaro_row(4)) == 1.0

    def test_increase_fails(self):
        assert constant("ms", [0.2, 0.5, 0.3]) > 1.0

    def test_zero_tail_ok(self):
        assert constant("ms", [0.5, 0.3, 0.2, 0.0, 0.0]) == 1.0

    def test_constant_convention(self):
        rows = [cesaro_row(0), cesaro_row(7), [0.2, 0.5, 0.3], [0.5, 0.0, 0.5]]
        got = class_constants("ms", rows).tolist()
        assert got == [1.0, 1.0, pytest.approx(2.5), math.inf]


class TestRBVS:
    def test_nonincreasing_telescopes_to_one(self):
        assert constant("rbvs", [0.4, 0.3, 0.2, 0.1]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_interior_sentinel(self):
        assert constant("rbvs", [0.5, 0.0, 0.5]) == math.inf

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for row in random_rows(rng, 40):
            assert constant("rbvs", row) == pytest.approx(brute_rbvs(row), rel=1e-12)

    def test_rejects_zero_row(self):
        with pytest.raises(MatrixError):
            constant("rbvs", [0.0, 0.0])


class TestGM:
    def test_nonincreasing_at_most_one(self):
        assert constant("gm", [0.4, 0.3, 0.2, 0.1]) <= 1.0 + 1e-15

    def test_bounded_by_rbvs(self):
        rng = np.random.default_rng(11)
        for row in random_rows(rng, 40):
            r = constant("rbvs", row)
            if math.isfinite(r):
                assert constant("gm", row) <= r + 1e-12

    def test_alternating_sentinel(self):
        row = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        row /= row.sum()
        assert constant("gm", row) == math.inf

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for row in random_rows(rng, 40):
            assert constant("gm", row) == pytest.approx(brute_gm(row), rel=1e-12)


class TestGM2:
    def test_cesaro_finite(self):
        k = constant("gm2", cesaro_row(8), 2.0)
        assert math.isfinite(k) and k <= 2.0

    def test_rejects_c_at_most_one(self):
        with pytest.raises(MatrixError):
            constant("gm2", cesaro_row(3), 1.0)

    def test_finite_gm_implies_finite_gm2(self):
        rng = np.random.default_rng(17)
        for row in random_rows(rng, 100):
            if math.isfinite(constant("gm", row)):
                assert math.isfinite(constant("gm2", row, 2.0))

    def test_zero_past_support_contributes_nothing(self):
        row = np.array([0.6, 0.4])
        # blocks beyond the support have zero variation, so the scan ends
        assert math.isfinite(constant("gm2", row, 2.0))


class TestClassMembership:
    def test_cesaro_ms_all_ones(self):
        rep = class_membership(cesaro_matrix(), "ms", 1.0, range(0, 65))
        assert rep.member
        assert set(rep.constants) == {1.0}
        assert rep.side_condition_ok

    def test_fixed_first_weight_flagged(self):
        m = explicit_matrix([np.concatenate([[1.0], np.zeros(n)]) for n in range(16)])
        rep = class_membership(m, "ms", 1.0, range(0, 16))
        assert rep.member  # still monotone rows
        assert rep.side_condition_ok is False

    def test_osc_gm2_family(self):
        m = osc_gm2_matrix()
        rep_ms = class_membership(m, "ms", 1.0, range(2, 65))
        rep_gm2 = class_membership(m, "gm2", 8.0, range(2, 65), c=2.0)
        assert not rep_ms.member
        assert rep_gm2.member
        assert rep_gm2.side_condition_ok

    def test_unknown_class(self):
        with pytest.raises(MatrixError):
            class_membership(cesaro_matrix(), "bogus", 1.0, [1])
        with pytest.raises(MatrixError):
            class_constants("bogus", [cesaro_row(1)])


class TestMatrices:
    def test_row_sum_enforced(self):
        m = explicit_matrix([np.ones(n + 1) for n in range(4)])
        with pytest.raises(MatrixError):
            m.table([3])

    def test_negative_rejected(self):
        m = explicit_matrix([[1.5, -0.5]])
        with pytest.raises(MatrixError):
            m.table([0])

    def test_riesz_weights(self):
        m = riesz_matrix(weights=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(row_of(m, 2), [1 / 6, 2 / 6, 3 / 6], rtol=1e-15)

    def test_riesz_exponent(self):
        m = riesz_matrix(exponent=1.0)
        np.testing.assert_allclose(row_of(m, 2), [1 / 6, 2 / 6, 3 / 6], rtol=1e-15)

    def test_riesz_needs_one_source(self):
        with pytest.raises(MatrixError):
            riesz_matrix()
        with pytest.raises(MatrixError):
            riesz_matrix(weights=[1.0], exponent=2.0)

    def test_osc_gm2_rows(self):
        row = row_of(osc_gm2_matrix(), 8)
        assert row[0] > 0.0
        assert row[1] == 0.0 and row[3] == 0.0 and row[7] == 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-15)
        assert constant("ms", row) > 1.0

    @pytest.mark.parametrize("c", [1.01, 1.5, 1.99])
    def test_osc_gm2_constructor_check_fails_below_c_2(self, c):
        # the gm2 window [1, floor(c)] of row 2, (1/2, 0, 1/2), holds only its zero
        with pytest.raises(MatrixError, match="in class gm2 only for finite c >= 2"):
            osc_gm2_matrix(c=c)

    def test_osc_gm2_rule_matches_ten_row_check(self):
        # the oracle: in class when the gm2 constants of ten rows up to 256,
        # from the tests' own row formula, are all at most 8 (a c that
        # class_membership refuses is out)
        rows = explicit_matrix([osc_gm2_row(n) for n in range(257)])

        def checked(c):
            try:
                return class_membership(rows, "gm2", 8.0, (1, 2, 4, 8, 16, 32, 64, 128, 192, 256), c).member
            except MatrixError:
                return False

        def by_rule(c):
            try:
                return osc_gm2_matrix(c).params == {"c": c}
            except MatrixError:
                return False

        cs = [math.nan, math.inf, -math.inf, 0.5, 1.0, 1.0 + 1e-7, 1.99, 2.0 - 1e-10, 2.0, 2.0 + 1e-10, 1e300]
        cs += np.exp(np.random.default_rng(33).uniform(0.0, math.log(1001.0), 300)).tolist()
        assert [by_rule(c) for c in cs] == [checked(c) for c in cs]
        assert sum(map(by_rule, cs)) > 100

    def test_osc_gm2_builds_no_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("class check at construction")

        for name in ("class_membership", "_table_constants"):
            monkeypatch.setattr(matrices, name, refuse)
        assert [osc_gm2_matrix(c).params for c in (2.0, 4.0)] == [{"c": 2.0}, {"c": 4.0}]

    def test_explicit_and_file_round_trip(self, tmp_path):
        rows = [[1.0], [0.5, 0.5], [0.2, 0.3, 0.5]]
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"type": "explicit", "rows": rows}))
        m = load_matrix(path)
        np.testing.assert_allclose(row_of(m, 2), rows[2])
        with pytest.raises(MatrixError):
            m.table([3])

    def test_from_dict_kinds(self):
        assert matrix_from_dict({"type": "cesaro"}).name == "cesaro"
        assert (
            matrix_from_dict({"type": "riesz", "params": {"exponent": 0.5}}).name
            == "riesz"
        )
        assert matrix_from_dict({"type": "osc-gm2"}).name == "osc-gm2"
        with pytest.raises(MatrixError):
            matrix_from_dict({"type": "diagonal"})

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"type": "riesz", "params": []}, "params must be an object"),
            ({"type": "riesz", "params": "abc"}, "params must be an object"),
            ({"type": "explicit", "rows": 5}, "malformed explicit"),
            ({"type": "riesz", "params": {"exponent": "x"}}, "malformed riesz"),
            ({"type": "osc-gm2", "params": {"c": "x"}}, "malformed osc-gm2"),
            ({"type": "explicit"}, "missing 'rows'"),
            ([{"type": "cesaro"}], "must be an object"),
            ({"type": "cesaro", "params": {"c": 3}}, "unknown cesaro params key 'c'"),
            ({"type": "osc-gm2", "params": {"cc": 3}}, "unknown osc-gm2 params key 'cc'"),
            ({"type": "cesaro", "file": "x.json"}, "unknown matrix key 'file'"),
            ({"type": "cesaro", "rows": [[1.0]]}, "unknown matrix key 'rows'"),
            ({"type": "osc-gm2", "params": {"c": True}}, "malformed osc-gm2"),
            ({"type": "riesz", "params": {"exponent": "2"}}, "malformed riesz"),
            ({"type": "riesz", "params": {"weights": [1.0, True]}}, "malformed riesz"),
            ({"type": "explicit", "rows": [[True]]}, "malformed explicit"),
            ({"type": "explicit", "rows": [["1"]]}, "malformed explicit"),
        ],
    )
    def test_from_dict_malformed(self, data, match):
        with pytest.raises(MatrixError, match=match):
            matrix_from_dict(data)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        m = matrix_from_dict({"type": "explicit", "rows": [[1.0], [bad, 1.0]]})
        assert row_of(m, 0).tolist() == [1.0]
        with pytest.raises(MatrixError, match=f"row 1 sums to {bad!r}"):
            m.table([1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_nonincreasing_rows_telescope(seed):
    rng = np.random.default_rng(seed)
    (row,) = random_rows(rng, 1, kind="nonincreasing")
    assert constant("rbvs", row) == pytest.approx(1.0, abs=1e-12)
    assert constant("gm", row) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_inclusion_chain(seed):
    rng = np.random.default_rng(seed)
    (row,) = random_rows(rng, 1)
    if constant("ms", row) == 1.0:
        assert constant("rbvs", row) <= 1.0 + 1e-12
    r = constant("rbvs", row)
    if math.isfinite(r):
        assert constant("gm", row) <= r + 1e-12
    if math.isfinite(constant("gm", row)):
        assert math.isfinite(constant("gm2", row, 2.0))


@st.composite
def class_rows(draw):
    """Rows with zero holes, trailing zeros and length 1, or 2^-k rows of
    length 40-120, whose block sums a prefix-sum difference would cancel."""
    if draw(st.booleans()):
        row = 2.0 ** -np.arange(draw(st.integers(40, 120)))
    else:
        n = draw(st.integers(1, 40))
        row = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        row[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    row = np.concatenate([row, np.zeros(draw(st.integers(0, 5)))])
    if row.sum() == 0.0:
        row[0] = 1.0
    return row / row.sum()


def same_constant(got, want):
    if math.isinf(got) or math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(row=class_rows(), c=st.sampled_from([1.5, 2.0, 2.5, 3.0]))
def test_constants_match_brute_scans(row, c):
    same_constant(constant("ms", row), brute_ms(row))
    same_constant(constant("rbvs", row), brute_rbvs(row))
    same_constant(constant("gm", row), brute_gm(row))
    same_constant(constant("gm2", row, c), brute_gm2(row, c))


@pytest.mark.parametrize("n", [40, 80, 120])
def test_geometric_rows_keep_exact_gm(n):
    # each block telescopes to a_m - a_2m, and past the middle of the row
    # to a_m itself, so the gm constant of 2^-k is 1 up to a few ulps
    row = 2.0 ** -np.arange(n)
    row /= row.sum()
    assert constant("gm", row) == pytest.approx(1.0, rel=1e-14, abs=0.0)


BRUTE = {
    "ms": lambda row, c: brute_ms(row),
    "rbvs": lambda row, c: brute_rbvs(row),
    "gm": lambda row, c: brute_gm(row),
    "gm2": brute_gm2,
}


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(class_rows(), min_size=1, max_size=8), c=st.sampled_from([1.5, 2.0, 2.5, 3.0]))
def test_row_table_matches_one_row_calls(rows, c):
    # rows of different lengths share one padded table; each constant must
    # still be the one-row value bit for bit, inf sentinels included
    m = explicit_matrix(rows)
    for name in CLASS_NAMES:
        got = class_membership(m, name, 1.0, range(len(rows)), c=c).constants
        assert got == tuple(constant(name, row, c) for row in rows)
        for k, row in zip(got, rows):
            same_constant(k, BRUTE[name](row, c))


# perfbench's tolerance on a class constant against its oracle
CLASS_RTOL = 1e-12


@pytest.mark.parametrize(
    "matrix, c",
    [
        (cesaro_matrix(), 2.0),
        (riesz_matrix(exponent=1.0), 2.0),
        (osc_gm2_matrix(c=2.0), 2.0),
        (explicit_matrix([osc_gm2_row(n) for n in range(129)]), 2.0),
    ],
    ids=["cesaro", "riesz", "osc-gm2", "explicit"],
)
def test_class_membership_equals_per_row_loop(matrix, c):
    # explicit rows take the row table, bit for bit; the Riesz-type
    # families take their weights, which sum in another order
    rows = range(0, 129)
    for name in CLASS_NAMES:
        got = class_membership(matrix, name, 1.0, rows, c=c).constants
        want = tuple(constant(name, row_of(matrix, n), c) for n in rows)
        if matrix.name == "explicit":
            assert got == want
        else:
            assert [math.isinf(k) for k in got] == [math.isinf(k) for k in want]
            np.testing.assert_allclose(got, want, rtol=CLASS_RTOL, atol=0.0)


def test_class_membership_makes_no_per_row_calls(monkeypatch):
    # rows with no weight sequence: the four class checks of one n range
    # share one table build
    builds = []
    m = SummabilityMatrix(
        "logged", lambda ns: builds.append(ns.tolist()) or matrices.row_table([osc_gm2_row(n) for n in ns.tolist()])
    )
    for rows in (range(0, 65), range(0, 65), range(3, 9)):
        for name in CLASS_NAMES:
            assert len(class_membership(m, name, 1.0, rows).constants) == len(rows)
    assert builds == [list(range(0, 65)), list(range(3, 9))]

    # Riesz-type rows: their weights alone, no table
    def refuse(*args):
        raise AssertionError("row table built")

    monkeypatch.setattr(SummabilityMatrix, "table", refuse)
    monkeypatch.setattr(matrices, "_table_constants", refuse)
    weights = [1.0 / (k + 1) for k in range(65)]
    for m in (cesaro_matrix(), riesz_matrix(exponent=1.0), riesz_matrix(weights=weights), osc_gm2_matrix()):
        for rows in (range(0, 65), range(3, 9)):
            for name in CLASS_NAMES:
                assert len(class_membership(m, name, 1.0, rows).constants) == len(rows)
            assert len(side_condition(m, rows)[1]) == len(rows)


@st.composite
def weight_cases(draw):
    """(kind, matrix, n values, gm2 c): a weight list with zeros after p_0,
    geometric weights r^k, decaying weights r^k u_k with u_k in 1..4, a
    riesz exponent in [-3, 3] or osc-gm2 at c = 2, 3 or 4; n unsorted,
    repeated and with 0.  The listed weights are integers times powers of
    two, so no two of them round to one table entry, which would erase a
    variation the weights have.  Their sums are nearly exact, so the
    decaying rows, whose largest block ratio lies deep in the decay, are
    the ones on which a window taken as a prefix-sum difference would
    cancel."""
    kind = draw(st.sampled_from(["weights", "geometric", "decaying", "exponent", "osc-gm2"]))
    if kind == "weights":
        size = draw(st.integers(1, 60))
        listed = st.builds(math.ldexp, st.integers(1, 1000), st.integers(-20, 20))
        p = np.array(draw(st.lists(listed, min_size=size, max_size=size)))
        p[[k for k in draw(st.lists(st.integers(0, size - 1), max_size=size)) if k > 0]] = 0.0
        matrix = riesz_matrix(weights=p)
    elif kind == "geometric":
        size = draw(st.integers(40, 120))
        r = draw(st.sampled_from([0.5, 1.0 / 3.0, 0.7]))
        matrix = riesz_matrix(weights=r ** np.arange(size))
    elif kind == "decaying":
        # r u_{k+1} / u_k never 1, so no two weights are one ulp apart
        size = draw(st.integers(40, 120))
        u = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
        matrix = riesz_matrix(weights=draw(st.sampled_from([0.6, 0.7])) ** np.arange(size) * u)
    else:
        size = 301
        if kind == "exponent":
            matrix = riesz_matrix(exponent=draw(st.floats(-3.0, 3.0)))
        else:
            matrix = osc_gm2_matrix(draw(st.sampled_from([2.0, 3.0, 4.0])))
    ns = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=10))
    ns = draw(st.permutations([*ns, 0, ns[0]]))
    return kind, matrix, ns, draw(st.floats(1.0, 8.0, exclude_min=True))


@settings(max_examples=200, deadline=None)
@given(case=weight_cases())
def test_weight_route_matches_table_route(case):
    # the constants from the weights alone against those of the row table,
    # within CLASS_RTOL and with the same infinities
    kind, matrix, ns, c = case
    table = matrix.table(ns)
    for name in CLASS_NAMES:
        got = class_membership(matrix, name, 1.0, ns, c=c).constants
        want = matrices._table_constants(name, *table, c).tolist()
        assert [math.isinf(k) for k in got] == [math.isinf(k) for k in want], name
        np.testing.assert_allclose(got, want, rtol=CLASS_RTOL, atol=0.0, err_msg=name)
        if name == "gm" and kind == "geometric":
            # decaying rows: each block telescopes, so gm is 1 past row 0
            np.testing.assert_allclose([k for k, n in zip(got, ns) if n], 1.0, rtol=1e-14, atol=0.0)


def test_long_cesaro_sweep_constants():
    # rows 0..16384, whose table alone would take 2 GB: ms = rbvs = 1, gm = 1
    # past row 0, and gm2 = 1 / sum_{k = floor(n/2) v 1}^{n} 1/k, read at
    # m = n
    rows = range(16385)
    m = cesaro_matrix()
    inv = [0.0] + [1.0 / k for k in rows[1:]]
    want = {
        "ms": [1.0] * len(rows),
        "rbvs": [1.0] * len(rows),
        "gm": [0.0] + [1.0] * (len(rows) - 1),
        "gm2": [0.0] + [1.0 / math.fsum(inv[max(n // 2, 1) : n + 1]) for n in rows[1:]],
    }
    for name in CLASS_NAMES:
        got = class_membership(m, name, 1.0, rows).constants
        np.testing.assert_allclose(got, want[name], rtol=1e-12, atol=0.0, err_msg=name)


@pytest.mark.parametrize("c", [1.0, 0.5, float("nan")])
def test_class_membership_checks_c_before_reading_rows(c):
    def no_rows(ns):
        raise AssertionError("row read before the class check")

    m = SummabilityMatrix("unread", no_rows)
    with pytest.raises(MatrixError, match="c must be > 1"):
        class_membership(m, "gm2", 1.0, range(4), c=c)
    with pytest.raises(MatrixError, match="unknown class"):
        class_membership(m, "bogus", 1.0, range(4))


@st.composite
def sweeps(draw):
    """n lists holding 0, a repeat and values in any order."""
    ns = draw(st.lists(st.integers(0, 300), min_size=1, max_size=10))
    return draw(st.permutations([*ns, 0, ns[0]]))


FAMILIES = {"cesaro": (cesaro_matrix(), cesaro_row), "osc-gm2": (osc_gm2_matrix(), osc_gm2_row)}


@settings(max_examples=100, deadline=None)
@given(
    ns=sweeps(),
    exponent=st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(-6.0, 6.0)),
)
def test_family_tables_equal_one_row_formulas(ns, exponent):
    # every row of a family table is its one-row formula bit for bit, with
    # zeros after it up to the longest row's trailing zero
    families = dict(FAMILIES, riesz=(riesz_matrix(exponent=exponent), lambda n: riesz_row(n, exponent)))
    for name, (matrix, formula) in families.items():
        table, sizes = matrix.table(ns)
        assert table.shape == (len(ns), max(ns) + 2) and sizes.tolist() == [n + 1 for n in ns]
        for row, size, n in zip(table, sizes, ns):
            assert row[:size].tolist() == formula(n).tolist(), (name, n)
            assert not row[size:].any()
        assert row_of(matrix, ns[0]).tolist() == formula(ns[0]).tolist()


def test_table_is_kept_once_and_read_only():
    m = cesaro_matrix()
    table, sizes = m.table(range(3, 9))
    assert not table.flags.writeable and not sizes.flags.writeable
    assert table[2, :6].tolist() == cesaro_row(5).tolist()
    # any sequence of the same n finds the kept table
    assert m.table(range(3, 9))[0] is table
    assert m.table([3, 4, 5, 6, 7, 8])[0] is table
    m.table(range(4))
    assert m.table(range(3, 9))[0] is not table


def test_table_reads_only_its_rows():
    read = []
    cesaro = cesaro_matrix()
    m = SummabilityMatrix("logged", lambda ns: read.append(ns.tolist()) or cesaro._weights_table(ns))
    m.table([5, 2, 2, 7])
    assert read == [[5, 2, 2, 7]]
    # a bad row outside the sweep is never read
    m = explicit_matrix([[1.0], [0.5, 0.5], [1.5, -0.5]])
    assert m.table(range(2))[1].tolist() == [1, 2]


@pytest.mark.parametrize(
    "rows, ns, bad, message",
    [
        ([[1.0], [1.5, -0.5], [2.0]], range(3), 1, "row 1 has negative weights"),
        ([[1.0], [2.0], [1.5, -0.5]], range(3), 1, "row 1 sums to 2.0, expected 1"),
        ([[1.0], [math.nan, 1.0], [-1.0]], range(3), 1, "row 1 sums to nan, expected 1"),
        (
            [[1.0], [0.5, 0.5 + 4e-13], [0.5, 0.5 + 4e-12]],
            range(3),
            2,
            "row 2 sums to 1.000000000004, expected 1",
        ),
        ([[1.0], [], [2.0]], range(3), 1, "row 1 must be a nonempty vector"),
        ([[1.0], [2.0], [-1.0, 2.0]], [2, 1], 2, "row 2 has negative weights"),
        ([[1.0], [0.5, 0.5]], range(3), 2, "explicit matrix has 2 rows, asked for 2"),
        ([[1.0]], [0, -2, -1], -2, "row index must be >= 0, got -2"),
    ],
)
def test_table_errors_name_the_first_bad_row(rows, ns, bad, message):
    m = explicit_matrix(rows)
    for call in (lambda: m.table(ns), lambda: m.table([bad])):
        with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
            call()


def test_riesz_weights_too_short_names_the_row():
    with pytest.raises(MatrixError, match="^riesz weight list of length 2 cannot build row 2$"):
        riesz_matrix(weights=[1.0, 2.0]).table(range(1, 5))


@pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
def test_riesz_non_finite_exponent_rejected(exponent):
    with pytest.raises(MatrixError, match="exponent must be finite"):
        riesz_matrix(exponent=exponent)


def test_riesz_large_exponent_rows_sum_to_one():
    # 35^200 overflows: rows 34 on divide by their largest power first,
    # rows 0..33 keep the plain formula
    table, sizes = riesz_matrix(exponent=200.0).table(range(129))
    assert np.all(np.abs(table.sum(axis=1) - 1.0) <= 1e-12)
    assert table[33, :34].tolist() == riesz_row(33, 200.0).tolist()
    with mpmath.workdps(40):
        top = mpmath.mpf(129) ** 200 / mpmath.fsum(mpmath.mpf(k) ** 200 for k in range(1, 130))
    assert table[128, 128] == pytest.approx(float(top), rel=1e-13, abs=0.0)


def test_constants_of_subnormal_weights_warn_nothing():
    # riesz rows at exponent 200 hold subnormal weights, and a ratio over
    # one overflows: the constant is inf, without a RuntimeWarning
    m = riesz_matrix(exponent=200.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        constants = [class_membership(m, name, 8.0, range(129)).sup_constant for name in CLASS_NAMES]
    assert constants[0] == math.inf


@st.composite
def riesz_weights(draw):
    """Weight lists of magnitudes 1e-300 to 1e308, or of 1e307 to 1e308,
    whose prefix sums overflow, with zeros after p_0."""
    size = draw(st.integers(1, 40))
    low = draw(st.sampled_from([1e-300, 1e307]))
    p = np.array(draw(st.lists(st.floats(low, 1e308), min_size=size, max_size=size)))
    p[[k for k in draw(st.lists(st.integers(0, size - 1), max_size=size)) if k > 0]] = 0.0
    return p


@settings(max_examples=200, deadline=None)
@given(p=riesz_weights(), r=st.floats(-6.0, 6.0))
def test_riesz_weight_table_is_the_plain_formula(p, r):
    # weights and exponents share one table: where a prefix sum is finite
    # the row is p[:n+1] / sum, and the powers of an exponent r as a weight
    # list give the exponent-r rows bit for bit
    table, sizes = riesz_matrix(weights=p).table(range(p.size))
    assert np.all(np.abs(table.sum(axis=1) - 1.0) <= ROW_SUM_TOL)
    for n in range(p.size):
        with np.errstate(over="ignore"):
            total = p[: n + 1].sum()
        if math.isfinite(total):
            assert table[n, : n + 1].tolist() == (p[: n + 1] / total).tolist()
    powers = (np.arange(p.size) + 1.0) ** r
    got = riesz_matrix(weights=powers).table(range(p.size))[0]
    assert got.tolist() == riesz_matrix(exponent=r).table(range(p.size))[0].tolist()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_riesz_non_finite_weight_rejected(bad):
    # row 1 summed to nan when the table was built
    with pytest.raises(MatrixError, match="riesz weights must be finite"):
        riesz_matrix(weights=[1.0, bad, 1.0])


WEIGHT_FAMILIES = {
    "cesaro": cesaro_matrix(),
    "osc-gm2": osc_gm2_matrix(),
    "riesz-exponent": riesz_matrix(exponent=2.5),
    "riesz-weights": riesz_matrix(weights=[1.0 / (k + 1) for k in range(301)]),
}


@settings(max_examples=60, deadline=None)
@given(ns=sweeps())
def test_weights_give_the_table_rows(ns):
    # p[:n+1] / P_n is each table row: to the bit where the row sums are
    # exact (Cesaro, osc-gm2), else to rounding, as the table sums each
    # row on its own and P is one running sum; the side condition reads
    # a[n, 0] = p_0 / P_n
    for name, matrix in WEIGHT_FAMILIES.items():
        rows = matrix.rows(ns)
        p, sums = rows.p, rows.sums
        assert p.size == sums.size == max(ns) + 1 and not p.flags.writeable
        table, sizes = matrix.table(ns)
        rows = np.where(np.arange(p.size + 1) <= np.array(ns)[:, None], np.append(p, 0.0), 0.0) / sums[ns][:, None]
        firsts = side_condition(matrix, ns)[1]
        if name.startswith("riesz"):
            np.testing.assert_allclose(rows, table, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(firsts, table[:, 0], rtol=1e-14, atol=0.0)
        else:
            assert rows.tolist() == table.tolist()
            assert list(firsts) == table[:, 0].tolist()


def test_weights_are_kept_and_checked():
    m = cesaro_matrix()
    p = m.rows(range(3, 9)).p
    assert m.rows([8, 0]).p is p
    assert m.rows(range(4)).p is not p
    with pytest.raises(MatrixError, match="^row index must be >= 0, got -1$"):
        m.rows([2, -1])
    with pytest.raises(MatrixError, match="^riesz weight list of length 2 cannot build row 2$"):
        riesz_matrix(weights=[1.0, 2.0]).rows(range(1, 5))
    for bad in ([0.0, 1.0], [1.0, -1.0]):
        m = SummabilityMatrix("bad", weights_fn=lambda ns, b=bad: np.array(b))
        with pytest.raises(MatrixError, match="^bad weights must be >= 0 with p_0 > 0$"):
            m.rows([1])
    with pytest.raises(MatrixError, match="^bare needs a table or a weight function$"):
        SummabilityMatrix("bare")
    # no weight sequence, or one whose sum overflows: the table's rows
    assert isinstance(explicit_matrix([[1.0]]).rows([0]), matrices._TableRows)
    assert isinstance(riesz_matrix(weights=[1e308] * 3).rows([1]), matrices._TableRows)
    assert isinstance(riesz_matrix(weights=[1e308] * 3).rows([0]), matrices._WeightRows)


@pytest.mark.parametrize("weights", [np.ones(2), np.ones(5), np.ones((4, 1))], ids=["short", "long", "2-d"])
def test_weights_of_the_wrong_length_are_refused(weights):
    # rows 0..3 read p_0..p_3: two weights once ended in an IndexError
    m = SummabilityMatrix("short", weights_fn=lambda ns: weights)
    message = f"^{re.escape(f'short needs weights p_0..p_3, got shape {weights.shape}')}$"
    for call in (lambda: class_membership(m, "ms", 1.0, range(4)), lambda: side_condition(m, range(4))):
        with pytest.raises(MatrixError, match=message):
            call()


def test_rows_read_weights_or_the_table():
    weighted = [*WEIGHT_FAMILIES.values(), riesz_matrix(weights=[1.0, 0.0, 2.0, 0.5])]
    for m in weighted:
        assert isinstance(m.rows(range(4)), matrices._WeightRows), m.name
    # explicit rows, and riesz rows past 34^200, whose sums overflow
    for m, ns in ((explicit_matrix([[1.0], [0.5, 0.5]]), range(2)), (riesz_matrix(exponent=200.0), range(35))):
        assert isinstance(m.rows(ns), matrices._TableRows), m.name


def assert_reads_are_the_routes(matrix, ns, c, seed):
    """Each read of ``matrix.rows(ns)`` equals, bit for bit, its route on
    the weights p of ``weights_fn`` and their cumsum, or on the table: p_0 /
    P_n or column 0, the weight or table constants, and the prefix means
    or power_mean of the table."""
    rows, at = matrix.rows(ns), np.array(ns)
    values = np.random.default_rng(seed).uniform(0.0, 2.0, (2, rows.width))
    if isinstance(rows, matrices._WeightRows):
        p = matrix._weights_fn(at)
        sums = np.cumsum(p)
        firsts = p[0] / sums[at]
        constants = lambda name: matrices._weight_constants(name, p, at, c)
        means = lambda q: matrices._prefix_means(p, sums, at, values, q)
    else:
        table, sizes = matrix.table(ns)
        firsts = table[:, 0]
        constants = lambda name: matrices._table_constants(name, table, sizes, c)
        means = lambda q: power_mean(table, values[:, None, :], q)
    assert rows.firsts().tolist() == firsts.tolist()
    for name in CLASS_NAMES:
        assert rows.constants(name, c).tolist() == constants(name).tolist(), name
    for q in (0.5, 2.0, math.inf):
        assert np.array_equal(rows.means(values, q), means(q), equal_nan=True), q


@settings(max_examples=100, deadline=None)
@given(case=weight_cases(), seed=st.integers(0, 2**32 - 1))
def test_weight_case_reads_are_the_routes(case, seed):
    kind, matrix, ns, c = case
    assert_reads_are_the_routes(matrix, ns, c, seed)


EXPLICIT_OSC = explicit_matrix([osc_gm2_row(n) for n in range(301)])


@settings(max_examples=40, deadline=None)
@given(ns=sweeps(), c=st.floats(1.0, 8.0, exclude_min=True), seed=st.integers(0, 2**32 - 1))
def test_sweep_reads_are_the_routes(ns, c, seed):
    for matrix in (*WEIGHT_FAMILIES.values(), EXPLICIT_OSC, riesz_matrix(exponent=200.0)):
        assert_reads_are_the_routes(matrix, ns, c, seed)
