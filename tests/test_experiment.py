import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apsum.experiment import (
    ConfigError,
    ExperimentConfig,
    builtin_matrices,
    builtin_spectra,
    records_csv,
    report_to_dict,
    run,
    strong_mean_table,
    write_report,
)
from apsum import cli, experiment, matrices, measures, strong_means
from apsum.matrices import MatrixError, class_constants, explicit_matrix
from apsum.spectra import QuasiPeriodicFunction, validate_spectrum
from apsum.strong_means import strong_mean_rows

from conftest import PREFIX_RTOL, record_verdicts, spy_searches

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


BASE = {
    "spectrum": {"builtin": "smooth"},
    "theorem": "prop4",
    "q": [1.0],
    "x": [0.0],
    "n_range": [1, 16],
}


def make_config(**overrides):
    data = dict(BASE)
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def count_calls(monkeypatch, *names, owner=strong_means):
    """Wrap the named functions of ``owner`` (a module, strong_means by
    default, or a class for its methods); return the live call counts."""
    calls = {name: 0 for name in names}
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestBuiltinSpectra:
    def test_constant(self):
        f = builtin_spectra("constant")
        assert f(123.4) == 1.0

    def test_smooth_amplitude(self):
        f = builtin_spectra("smooth")
        assert f(0.0) == pytest.approx(1.1)

    def test_lacunary_top_frequency(self):
        f = builtin_spectra("lacunary")
        assert f.spectrum.max_frequency() == 1024.0

    def test_irrational_respects_gap(self):
        f = builtin_spectra("irrational")
        freqs = f.spectrum.freqs
        assert np.all(np.diff(freqs) >= f.spectrum.alpha)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin_spectra("wiggly")

    @pytest.mark.parametrize("name", experiment.BUILTIN_SPECTRA)
    def test_passes_validation(self, name):
        # a config validates the function it loads; no builtin may fail that
        assert validate_spectrum(builtin_spectra(name)).ok


class TestBuiltinMatrices:
    def test_cesaro_row(self):
        m = builtin_matrices("cesaro")
        np.testing.assert_allclose(m.table([2])[0][0], [1 / 3, 1 / 3, 1 / 3, 0.0])

    def test_osc_gm2_verified(self):
        m = builtin_matrices("osc-gm2")
        table, sizes = m.table([8, 32, 10])
        ms, gm2 = class_constants("ms", [table[0, :9]]), class_constants("gm2", [table[1, :33]])
        assert ms[0] > 1.0 and gm2[0] < 8.0
        assert table[2].sum() == pytest.approx(1.0, abs=1e-15)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin_matrices("identity")


class TestConfigValidation:
    def test_missing_spectrum(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"theorem": "prop4"})
        assert err.value.field == "spectrum"

    def test_alpha_mismatch_names_field(self):
        with pytest.raises(ConfigError) as err:
            make_config(alpha=2.0)
        assert err.value.field == "alpha"

    def test_alpha_match_accepted(self):
        cfg = make_config(alpha=1.0)
        assert cfg.alpha == 1.0

    def test_bad_q(self):
        with pytest.raises(ConfigError) as err:
            make_config(q=[1.0, -2.0])
        assert err.value.field == "q"

    def test_bad_c(self):
        with pytest.raises(ConfigError) as err:
            make_config(c=1.0)
        assert err.value.field == "c"

    @pytest.mark.parametrize(
        "field, value",
        [("x", [0.7, 0.7]), ("q", [1.0, 1.0]), ("x", [0.0, -0.0]), ("q", [2, 1.0, 2.0])],
    )
    def test_repeated_value_names_field(self, field, value):
        # a repeated x or q would repeat its records in the report
        with pytest.raises(ConfigError, match="must not repeat a value") as err:
            make_config(**{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", "x"),
            ("p", "x"),
            ("alpha", "x"),
            ("n_range", ["a", 2]),
            ("n_range", [1, None]),
            ("x_samples", "abc"),
            ("x_samples", float("inf")),
            ("max_ratio", "big"),
            ("blowup_head", "x"),
            ("blowup_factor", [2.0]),
            ("side_tol", "x"),
        ],
    )
    def test_non_numeric_names_field(self, field, value):
        with pytest.raises(ConfigError) as err:
            make_config(**{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize(
        "fit",
        [
            {"count": "x"},
            {"count": 2.7},
            {"count": 0},
            {"count": -3},
            {"count": None},
            {"count": float("inf")},
            {"top": -1},
            {"top": 0.0},
            {"top": "x"},
            {"top": float("nan")},
            {"top": float("inf")},
            {"top": [1.0]},
        ],
    )
    def test_bad_fit_majorant_names_field(self, fit):
        with pytest.raises(ConfigError) as err:
            make_config(majorant={"type": "fit", **fit})
        assert err.value.field == "majorant"

    def test_fit_majorant_fields_used(self):
        cfg = make_config(majorant={"type": "fit", "count": 3.0, "top": 2})
        small = make_config(majorant={"type": "fit", "count": 3, "top": 2.0})
        assert run(cfg).records == run(small).records
        assert run(cfg).records != run(make_config()).records

    @pytest.mark.parametrize("value", ["false", 0, 1, None, [True]])
    def test_literal_exponent_must_be_bool(self, value):
        with pytest.raises(ConfigError) as err:
            make_config(theorem="thm5", matrix={"builtin": "cesaro"}, thm5_literal_exponent=value)
        assert err.value.field == "thm5_literal_exponent"
        cfg = make_config(theorem="thm5", matrix={"builtin": "cesaro"}, thm5_literal_exponent=True)
        assert cfg.thm5_literal_exponent is True

    @pytest.mark.parametrize(
        "field, value",
        [("q", []), ("x", []), ("x_samples", 0), ("x_samples", -3)],
    )
    def test_config_that_checks_nothing_names_field(self, field, value):
        with pytest.raises(ConfigError) as err:
            make_config(**{field: value})
        assert err.value.field == field
        with pytest.raises(ConfigError) as err:
            make_config(theorem="thm2", matrix={"builtin": "cesaro"}, **{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("field", ["x_samples", "blowup_head"])
    @pytest.mark.parametrize("value", [2.7, 3.9, 16.5, -0.5])
    def test_non_integer_count_names_field(self, field, value):
        with pytest.raises(ConfigError) as err:
            make_config(**{field: value})
        assert err.value.field == field
        assert "integer" in str(err.value)

    @pytest.mark.parametrize("field", ["x_samples", "blowup_head"])
    def test_count_beyond_float_range_names_field(self, field):
        # int() takes it, float() overflows
        with pytest.raises(ConfigError) as err:
            make_config(**{field: 10**400})
        assert err.value.field == field

    @pytest.mark.parametrize("field", ["x_samples", "blowup_head"])
    def test_integral_float_count_accepted(self, field):
        cfg = make_config(**{field: 16.0})
        assert getattr(cfg, field) == 16 and type(getattr(cfg, field)) is int

    @pytest.mark.parametrize("theorem", ["prop4", "thm2", "thm6"])
    @pytest.mark.parametrize("field, value", [("c", 2.5), ("c", 3.0), ("thm5_literal_exponent", True)])
    def test_thm5_field_outside_thm5_names_field(self, theorem, field, value):
        # only thm5 cuts its tails by c; elsewhere the value changed nothing
        with pytest.raises(ConfigError) as err:
            make_config(theorem=theorem, matrix={"builtin": "cesaro"}, **{field: value})
        assert err.value.field == field
        assert make_config(theorem="thm5", matrix={"builtin": "cesaro"}, **{field: value})

    @pytest.mark.parametrize(
        "majorant", [{"type": "bogus"}, {"type": "fit"}, {"type": "power", "C": 1.0}, "x"]
    )
    def test_majorant_on_thm2_names_field(self, majorant):
        # thm2 bounds by translate moduli: a majorant, even a bogus one, was
        # never read and the run exited 0
        with pytest.raises(ConfigError) as err:
            make_config(theorem="thm2", matrix={"builtin": "cesaro"}, majorant=majorant)
        assert err.value.field == "majorant"

    def test_matrix_required_for_matrix_theorems(self):
        with pytest.raises(ConfigError) as err:
            make_config(theorem="thm6")
        assert err.value.field == "matrix"

    def test_unknown_field(self):
        with pytest.raises(ConfigError) as err:
            make_config(spectrm={"builtin": "smooth"})
        assert err.value.field == "spectrm"

    def test_unknown_theorem(self):
        with pytest.raises(ConfigError) as err:
            make_config(theorem="thm9")
        assert err.value.field == "theorem"

    def test_bad_quadrature(self):
        with pytest.raises(ConfigError) as err:
            make_config(quadrature={"panels_per_oscillation": 1})
        assert err.value.field == "quadrature"

    def test_spectrum_file_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found") as err:
            ExperimentConfig.from_dict(
                {"spectrum": {"file": "nope.json"}}, base_dir=tmp_path
            )
        assert err.value.field == "spectrum"

    @pytest.mark.parametrize("field", ["spectrum", "matrix"])
    def test_source_file_that_is_a_directory_names_field(self, tmp_path, field):
        data = {"spectrum": {"builtin": "smooth"}, "theorem": "thm6", "matrix": {"builtin": "cesaro"}}
        data[field] = {"file": "."}
        with pytest.raises(ConfigError, match="unusable path") as err:
            ExperimentConfig.from_dict(data, base_dir=tmp_path)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", math.inf),
            ("c", math.nan),
            ("max_ratio", math.nan),
            ("max_ratio", -1.0),
            ("max_ratio", 0.0),
            ("blowup_factor", math.nan),
            ("blowup_factor", -1.0),
            ("side_tol", math.nan),
            ("side_tol", -0.01),
        ],
    )
    def test_bad_verdict_value_names_field(self, field, value):
        with pytest.raises(ConfigError) as err:
            make_config(theorem="thm5", matrix={"builtin": "osc-gm2"}, **{field: value})
        assert err.value.field == field

    def test_verdict_bounds_accepted(self):
        # side_tol on thm5, as prop4 reads none
        cfg = make_config(
            theorem="thm5", matrix={"builtin": "osc-gm2"},
            max_ratio=math.inf, blowup_factor=1e-3, side_tol=0.0,
        )
        assert (cfg.max_ratio, cfg.blowup_factor, cfg.side_tol) == (math.inf, 1e-3, 0.0)

    @pytest.mark.parametrize(
        "matrix",
        [
            {"type": "riesz", "params": {"weights": [1.0, 1.0]}},  # no row 2
            {"type": "explicit", "rows": [[1.0], [0.5, 0.5]]},
            {"type": "explicit", "rows": [[1.0], [0.5, 0.5], [0.9, 0.0]]},
            {"type": "osc-gm2", "params": {"c": "x"}},
            {"type": "explicit"},
        ],
    )
    def test_matrix_without_sweep_rows_names_field(self, matrix):
        with pytest.raises(ConfigError) as err:
            make_config(theorem="thm6", matrix=matrix, n_range=[1, 4], blowup_head=4)
        assert err.value.field == "matrix"

    def test_matrix_rows_built_over_the_sweep_only(self):
        riesz = {"type": "riesz", "params": {"weights": [1.0, 1.0]}}
        assert make_config(theorem="thm6", matrix=riesz, n_range=[0, 1], blowup_head=1).n_range == (0, 1)
        with pytest.raises(ConfigError) as err:
            make_config(theorem="thm6", matrix=riesz, n_range=[0, 2], blowup_head=2)
        assert err.value.field == "matrix" and "row 2" in str(err.value)


def shipped(name, **overrides):
    """The config of configs/<name>.json with the given fields replaced."""
    data = json.loads((CONFIGS / f"{name}.json").read_text())
    return ExperimentConfig.from_dict(dict(data, **overrides))


class TestGridFields:
    @pytest.mark.parametrize(
        "grid",
        [
            {"u_samples": 2.5},
            {"u_samples": 0},
            {"u_samples": True},
            {"u_samples": "64"},
            {"u_samples": math.inf},
            {"window_length": 0.0},
            {"window_length": -1.0},
            {"window_length": math.inf},
            {"window_length": math.nan},
            {"window_length": "2"},
            {"u_span": 0},
            {"u_span": -1.0},
            {"u_span": math.inf},
            {"refine": "no"},
            {"refine": 1},
            {"refine": None},
            # removed quadrature fields: the window rule is fixed
            {"gl_nodes": 8},
            {"panels_per_window": 16},
            [],
            None,
        ],
    )
    def test_bad_grid_names_field(self, grid):
        with pytest.raises(ConfigError) as err:
            make_config(theorem="thm2", matrix={"builtin": "cesaro"}, grid=grid)
        assert err.value.field == "grid"

    @pytest.mark.parametrize("theorem", ["prop4", "thm5", "thm6"])
    @pytest.mark.parametrize(
        "grid", [{"u_samples": 64}, {"window_length": 1.0}, {"u_span": 3.0}, {"refine": False}]
    )
    def test_grid_outside_thm2_names_field(self, theorem, grid):
        with pytest.raises(ConfigError) as err:
            make_config(theorem=theorem, matrix={"builtin": "cesaro"}, grid=grid)
        assert err.value.field == "grid"

    @pytest.mark.parametrize("theorem", ["prop4", "thm5", "thm6"])
    def test_default_grid_accepted_outside_thm2(self, theorem):
        # every report echo carries the default grid
        echo = run(make_config(theorem=theorem, matrix={"builtin": "cesaro"}, n_range=[1, 2], blowup_head=2))
        assert echo.config["grid"] == {
            "u_samples": 512, "window_length": math.pi, "u_span": None, "refine": True
        }
        assert ExperimentConfig.from_dict(echo.config).grid == measures.WindowGrid()
        assert make_config(theorem=theorem, matrix={"builtin": "cesaro"}, grid={}).grid == (
            measures.WindowGrid()
        )

    def test_integral_float_u_samples_accepted(self):
        cfg = make_config(
            theorem="thm2", matrix={"builtin": "cesaro"}, grid={"u_samples": 64.0, "u_span": None}
        )
        assert cfg.grid.u_samples == 64 and type(cfg.grid.u_samples) is int

    @pytest.mark.parametrize(
        "field, value",
        [("u_samples", 64), ("window_length", 2.0), ("u_span", 3.0), ("refine", False)],
    )
    def test_every_grid_field_moves_the_rhs(self, field, value):
        # a move beyond rounding: at u_samples 256 the refined search finds
        # the same sup as at the default 512, so the rhs moves by 0 or by
        # one rounding; the four fields here move it by 8e-5, 0.19, 8e-4
        # and 7e-6 relative
        base = run(shipped("thm2_cesaro_smooth")).records
        moved = run(shipped("thm2_cesaro_smooth", grid={field: value})).records
        assert [r.n for r in moved] == [r.n for r in base]
        assert max(abs(a.rhs - b.rhs) / abs(b.rhs) for a, b in zip(moved, base)) > 1e-9


SPECTRUM = {"alpha": 1.0, "entries": [{"lambda": 1.0, "cos": 1.0}, {"lambda": 3.0, "sin": 0.5}]}
GAPPED = {"alpha": 1.0, "entries": [{"lambda": 1.0, "cos": 1.0}, {"lambda": 1.5, "cos": 1.0}]}


class TestResolveOnce:
    def test_relative_files_from_another_cwd(self, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "spec.json").write_text(json.dumps(SPECTRUM))
        (conf / "mat.json").write_text(json.dumps({"type": "cesaro"}))
        data = dict(
            BASE, theorem="thm6", spectrum={"file": "spec.json"}, matrix={"file": "mat.json"}
        )
        (conf / "cfg.json").write_text(json.dumps(data))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        cfg = ExperimentConfig.from_file(conf / "cfg.json")
        inline = make_config(theorem="thm6", spectrum=SPECTRUM, matrix={"type": "cesaro"})
        report = run(cfg)
        assert report.records == run(inline).records
        assert report.config == dict(inline.to_dict(), spectrum=data["spectrum"], matrix=data["matrix"])
        assert strong_mean_table(cfg) == strong_mean_table(inline)

    def test_inputs_resolved_once(self, monkeypatch, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(SPECTRUM))
        loads = []
        load = experiment.load_spectrum
        monkeypatch.setattr(
            experiment, "load_spectrum", lambda *a, **k: loads.append(a) or load(*a, **k)
        )
        data = dict(BASE, theorem="thm6", spectrum={"file": "spec.json"}, matrix={"builtin": "cesaro"})
        builds = []
        build = matrices._cesaro_weights
        monkeypatch.setattr(matrices, "_cesaro_weights", lambda ns: builds.append(ns.tolist()) or build(ns))
        cfg = ExperimentConfig.from_dict(data, base_dir=tmp_path)
        f, matrix = cfg.resolve_function(), cfg.resolve_matrix()
        run(cfg)
        strong_mean_table(cfg)
        assert len(loads) == 1
        assert cfg.resolve_function() is f and cfg.resolve_matrix() is matrix
        # one weight sequence, built at load, read by run() and
        # strong_mean_table(); a table would build another
        assert builds == [list(range(1, 17))]

    @pytest.mark.parametrize(
        "matrix",
        [
            {"builtin": "cesaro"},
            {"builtin": "riesz", "params": {"exponent": 2.0}},
            {"builtin": "riesz", "params": {"weights": [1.0 / (k + 1) for k in range(17)]}},
            {"builtin": "osc-gm2"},
        ],
        ids=["cesaro", "riesz-exponent", "riesz-weights", "osc-gm2"],
    )
    @pytest.mark.parametrize("theorem", ["thm2", "thm5", "thm6"])
    def test_riesz_type_rows_build_no_table(self, monkeypatch, matrix, theorem):
        # config load checks the weights; run() and strong_mean_table read
        # them, and the side condition reads p_0 / P_n
        cfg = make_config(
            theorem=theorem, matrix=matrix, q=[0.5, 2.0, math.inf], **({"x_samples": 4} if theorem == "thm2" else {})
        )

        def no_table(self, n_values):
            raise AssertionError(f"{self.name} table built for {list(n_values)}")

        monkeypatch.setattr(matrices.SummabilityMatrix, "table", no_table)
        report = run(cfg)
        assert len(report.records) == 3 * 16 and report.summary["side_condition_ok"] is not None
        assert len(strong_mean_table(cfg).splitlines()) == 1 + 3 * 16

    @pytest.mark.parametrize("source", ["file", "inline"])
    def test_run_refuses_spectrum_let_in_by_allow_invalid(self, tmp_path, source):
        (tmp_path / "spec.json").write_text(json.dumps(GAPPED))
        spectrum = {"file": "spec.json"} if source == "file" else GAPPED
        data = dict(BASE, theorem="thm6", spectrum=spectrum, matrix={"builtin": "cesaro"})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data, base_dir=tmp_path)
        assert err.value.field == "spectrum"
        cfg = ExperimentConfig.from_dict(data, base_dir=tmp_path, allow_invalid=True)
        assert cfg.resolve_function().spectrum.freqs.tolist() == [1.0, 1.5]
        for call in (run, strong_mean_table):
            with pytest.raises(ConfigError) as err:
                call(cfg)
            assert err.value.field == "spectrum" and "gap" in str(err.value)

    def test_file_flag_waives_validation(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(GAPPED))
        cfg = ExperimentConfig.from_dict(
            dict(BASE, spectrum={"file": "spec.json", "allow_invalid": True}), base_dir=tmp_path
        )
        assert run(cfg).summary["records"] == 16

    @pytest.mark.parametrize("flag", ["false", 1])
    def test_file_flag_must_be_bool(self, tmp_path, flag):
        # "false" and 1 are truthy, so either waived validation and the
        # gapped spectrum ran
        (tmp_path / "spec.json").write_text(json.dumps(GAPPED))
        spectrum = {"file": "spec.json", "allow_invalid": flag}
        data = dict(BASE, theorem="thm6", spectrum=spectrum, matrix={"builtin": "cesaro"})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data, base_dir=tmp_path)
        assert err.value.field == "spectrum" and "allow_invalid" in str(err.value)


class TestBlowUpVerdict:
    def test_no_false_alarm_near_zeros_of_f(self):
        # the grid holds x = 1.518 and 4.765, where f(x) = -0.034: the q = 1
        # ratio rises from 0.024 at n = 1 to 0.127 at n = 19 and falls back
        # to 0.062 by n = 128, so it is bounded and does not grow
        xs = np.linspace(0.0, 2.0 * math.pi, 121).tolist()
        assert run(shipped("thm5_oscgm2_smooth", x=xs)).summary["regression_ok"]

    @pytest.mark.parametrize(
        "name, power",
        [
            ("thm5_oscgm2_smooth", 0.5),
            ("thm5_oscgm2_smooth", 1.0),
            ("thm6_cesaro_lacunary", 0.5),
            ("thm6_cesaro_lacunary", 1.0),
            ("thm2_cesaro_smooth", 1.0),
        ],
    )
    def test_growing_ratio_fails(self, monkeypatch, name, power):
        # an rhs divided by (n+1)^power makes the ratios grow with n
        sweep_of = strong_means._sweep_of
        monkeypatch.setattr(
            strong_means,
            "_sweep_of",
            lambda xs, qs, ns, lhs, rhs: sweep_of(xs, qs, ns, lhs, rhs / (np.array(ns) + 1.0) ** power),
        )
        assert not run(shipped(name)).summary["regression_ok"]


# Ratios of these lhs and rhs values tie often (0.0 with -0.0 too) and take
# every case of ``strong_means._sweep_of``: NaN lhs, 0/0, finite/0, inf/inf.
SWEEP_VALUES = st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf, math.nan])


X_LABELS = st.lists(st.sampled_from([0.0, 0.7, 1.4]), min_size=1, max_size=2, unique=True)
Q_LABELS = st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=2, unique=True)


@st.composite
def sweeps(draw, x_labels=X_LABELS, q_labels=Q_LABELS):
    """A sweep's arrays: the x and q labels (1-2 each by default), n over
    [lo, hi], and its verdict bounds (a head end in [lo, hi], a factor, a
    ratio cap)."""
    xs, qs = draw(x_labels), draw(q_labels)
    lo = draw(st.integers(0, 3))
    ns = list(range(lo, draw(st.integers(lo, lo + 16)) + 1))
    shape = (len(qs), len(xs), len(ns))
    size = len(qs) * len(xs) * len(ns)
    lhs, rhs = (
        np.array(draw(st.lists(SWEEP_VALUES, min_size=size, max_size=size))).reshape(shape)
        for _ in range(2)
    )
    head_end = draw(st.integers(lo, ns[-1]))
    bounds = head_end, draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.sampled_from([1.0, 2.5, math.inf]))
    return strong_means._sweep_of(xs, qs, ns, lhs, rhs), bounds


class TestArrayVerdicts:
    @settings(max_examples=300, deadline=None)
    @given(case=sweeps())
    def test_match_per_record_verdicts(self, case):
        # the first of the largest ratios as Python's max picks it (a NaN in
        # front wins), a NaN ratio passing the cap, the blow-up test's slack
        # and dropped NaNs, and the flag counts in first-appearance order;
        # repr compares NaN and the Python types too
        sweep, (head_end, factor, cap) = case
        records = sweep.records()
        got = experiment._verdicts(sweep, cap, head_end, factor)
        assert repr(got) == repr(record_verdicts(records, cap, head_end, factor))

    @pytest.mark.parametrize(
        "ratios, index",
        [([math.nan, 1.0], 0), ([1.0, math.nan], 0), ([0.0, math.nan, 2.0, 2.0], 2), ([math.inf, math.inf], 0)],
    )
    def test_first_largest(self, ratios, index):
        assert experiment._first_largest(np.array(ratios)) == index


def per_record_csv(records, x=None, q=None) -> str:
    """``records_csv`` by one pass over the records, its oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "lhs", "rhs", "ratio", "flags"])
    for row in records:
        if x is not None and row.x != x:
            continue
        if q is not None and row.q != q:
            continue
        writer.writerow([row.n, repr(row.lhs), repr(row.rhs), repr(row.ratio), ";".join(row.flags)])
    return buf.getvalue()


def per_record_dict(report, records) -> dict:
    """``report_to_dict`` with one dict per record, its oracle."""
    return {
        "config": experiment._echo(report.config),
        "summary": experiment._strict_summary(report.summary),
        "records": [
            {
                "x": r.x,
                "q": experiment._echo(r.q),
                "n": r.n,
                "lhs": experiment._finite(r.lhs),
                "rhs": experiment._finite(r.rhs),
                "ratio": experiment._finite(r.ratio),
                "flags": list(r.flags),
            }
            for r in records
        ],
    }


def per_record_files(report, records) -> list[tuple[str, bytes]]:
    """The (name, bytes) of each file ``write_report`` writes, in its order,
    from the records: its oracle.  The slices are the records' (x, q) pairs
    sorted by (repr(x), q)."""
    text = json.dumps(per_record_dict(report, records), indent=2, sort_keys=True, allow_nan=False)
    files = [("report.json", (text + "\n").encode())]
    combos = sorted({(r.x, r.q) for r in records}, key=lambda t: (repr(t[0]), t[1]))
    for x, q in combos:
        files.append((f"records_{experiment._slice_tag(x, q)}.csv", per_record_csv(records, x, q).encode()))
    return files


class TestArrayWriters:
    # thm2's one x label None, -0.0 (whose repr sorts before 0.7) and
    # q = inf beside the values of SWEEP_VALUES: NaN, +-inf, -0.0 and the
    # 0/0 and infinite-ratio flags
    LABELS = dict(
        x_labels=st.one_of(
            st.just([None]),
            st.lists(st.sampled_from([-0.0, 0.7, 1.4, -2.5]), min_size=1, max_size=3, unique=True),
        ),
        q_labels=st.lists(st.sampled_from([0.5, 1.0, 2.0, math.inf]), min_size=1, max_size=3, unique=True),
    )

    @settings(max_examples=150, deadline=None)
    @given(case=sweeps(**LABELS))
    def test_match_per_record_writers(self, case):
        # repr and bytes tell NaN, -0.0 and the Python types apart
        sweep, (head_end, factor, cap) = case
        summary = {
            "theorem": "thm6",
            "records": sweep.ratio.size,
            **experiment._verdicts(sweep, cap, head_end, factor),
            "side_condition_ok": None,
        }
        report = experiment.ExperimentReport({"q": list(sweep.qs)}, sweep, summary)
        records = sweep.records()
        for x in (None, *sweep.xs, 0.0, 9.0):  # 0.0 == -0.0 takes the -0.0 slice
            for q in (None, *sweep.qs, 3.0):
                assert records_csv(report, x, q) == per_record_csv(records, x, q)
        assert repr(report_to_dict(report)) == repr(per_record_dict(report, records))
        with tempfile.TemporaryDirectory() as tmp:
            got = [(path.name, path.read_bytes()) for path in write_report(report, tmp)]
        assert got == per_record_files(report, records)

    def test_no_record_built(self, monkeypatch, tmp_path):
        # run(), apsum verify and write_report read the sweep's arrays;
        # only a read of report.records builds RatioRecords
        built = []
        make, new = strong_means.RatioRecord._make, strong_means.RatioRecord.__new__

        def counted_make(cls, iterable):
            built.append(1)
            return make(iterable)

        def counted_new(cls, *args, **kwargs):
            built.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(strong_means.RatioRecord, "_make", classmethod(counted_make))
        monkeypatch.setattr(strong_means.RatioRecord, "__new__", counted_new)
        for path in sorted(CONFIGS.glob("*.json")):
            report = run(shipped(path.stem))
            write_report(report, tmp_path / path.stem)
            assert cli.main(["verify", str(path)]) == 0
            assert built == []
            assert len(report.records) == len(built) == report.summary["records"]
            built.clear()


class TestRun:
    def test_empty_n_range(self):
        # lo > hi would sweep no n and report a pass that checked nothing
        with pytest.raises(ConfigError) as err:
            make_config(n_range=[3, 2])
        assert err.value.field == "n_range"

    def test_prop4_bounded(self):
        report = run(make_config())
        assert report.summary["regression_ok"]
        assert 0.0 < report.summary["max_ratio"] <= 50.0

    def test_records_sorted_and_consistent(self):
        report = run(make_config(q=[1.0, 2.0], x=[0.0, 0.7], n_range=[1, 8]))
        combos = [(r.x, r.q) for r in report.records]
        assert combos == sorted(combos, key=lambda t: (t[0], t[1]))
        by_combo = {}
        for r in report.records:
            by_combo.setdefault((r.x, r.q), []).append(r.n)
        for ns in by_combo.values():
            assert ns == sorted(ns)
        worst = max(report.records, key=lambda r: r.ratio)
        assert report.summary["max_ratio"] == worst.ratio

    def test_large_finite_p_thm2(self):
        # |g|^p overflowed at p = 1000: every omega was inf, every rhs NaN,
        # every record flagged infinite-ratio and the run failed
        ps = (400.0, 1000.0, math.inf)
        summary = {p: run(shipped("thm2_cesaro_smooth", p=p)).summary for p in ps}
        assert summary[1000.0]["flag_counts"] == {} and summary[1000.0]["regression_ok"]
        ratios = [summary[p]["max_ratio"] for p in (math.inf, 1000.0, 400.0)]
        assert ratios == sorted(ratios) and math.isfinite(ratios[1])

    def test_thm6_with_matrix(self):
        # sweep long enough for the first-column weights to drop under the
        # side-condition tolerance (short sweeps are flagged inconclusive)
        report = run(
            make_config(theorem="thm6", matrix={"builtin": "cesaro"}, n_range=[1, 64])
        )
        assert report.summary["side_condition_ok"] is True
        assert report.summary["regression_ok"]

    def test_constant_function_flags(self):
        report = run(
            make_config(
                spectrum={"builtin": "constant"},
                majorant={"type": "power", "C": 0.0},
                n_range=[1, 6],
                blowup_head=6,
            )
        )
        assert all(r.ratio == 0.0 for r in report.records)
        assert report.summary["flag_counts"]["zero-over-zero"] == 6
        # every record is 0/0: the run checked nothing, so it does not pass
        assert report.summary["regression_ok"] is False

    def test_determinism_and_threads(self, tmp_path, monkeypatch):
        cfg = make_config(q=[1.0, 2.0], x=[0.0, 0.7], n_range=[1, 10])
        a = records_csv(run(cfg))
        b = records_csv(run(cfg))
        assert a == b
        # APSUM_THREADS is not read: setting it changes nothing
        monkeypatch.setenv("APSUM_THREADS", "4")
        assert records_csv(run(cfg)) == a
        # every shipped config passes and writes the same report.json bytes
        # with APSUM_THREADS at 1 and at 2
        for path in sorted(CONFIGS.glob("*.json")):
            cfg = ExperimentConfig.from_file(path)
            reports = []
            for threads in ("1", "2"):
                monkeypatch.setenv("APSUM_THREADS", threads)
                report = run(cfg)
                assert report.summary["regression_ok"], path.name
                paths = write_report(report, tmp_path / f"{path.stem}-{threads}")
                reports.append(paths[0].read_bytes())  # report.json
            assert reports[0] == reports[1], path.name

    def test_one_sweep_per_run_pointwise(self, monkeypatch):
        omegas = count_calls(monkeypatch, "modulus_omega")
        sides = count_calls(monkeypatch, "side_condition", owner=experiment)
        ladders = count_calls(monkeypatch, "partial_sums", owner=QuasiPeriodicFunction)
        cfg = make_config(
            theorem="thm6",
            matrix={"builtin": "cesaro"},
            q=[0.5, 1.0, 2.0],
            x=[0.0, 0.7],
            n_range=[1, 32],
        )
        report = run(cfg)
        assert len(report.records) == 2 * 3 * 32
        assert {**sides, **omegas} == {"side_condition": 1, "modulus_omega": 0}
        assert ladders == {"partial_sums": 1}  # one cutoff ladder serves both x

    def test_one_sweep_per_run_thm2(self, monkeypatch):
        omegas = count_calls(monkeypatch, "modulus_omega")
        sides = count_calls(monkeypatch, "side_condition", owner=experiment)
        ladders = count_calls(monkeypatch, "partial_sums", owner=QuasiPeriodicFunction)
        cfg = make_config(
            theorem="thm2",
            matrix={"builtin": "cesaro"},
            q=[1.0, 2.0],
            x_samples=16,
            n_range=[1, 8],
        )
        report = run(cfg)
        assert [(r.x, r.q) for r in report.records[::8]] == [(None, 1.0), (None, 2.0)]
        assert {**sides, **omegas} == {"side_condition": 1, "modulus_omega": 1}
        assert ladders == {"partial_sums": 1}  # one cutoff ladder serves all 16 x

    @pytest.mark.parametrize("theorem", ["prop4", "thm2", "thm5", "thm6"])
    def test_one_row_mean_per_q_and_side(self, monkeypatch, theorem):
        means = count_calls(monkeypatch, "power_mean", "_prefix_means", owner=matrices)
        lhs = count_calls(monkeypatch, "strong_mean_rows")
        cfg = make_config(
            theorem=theorem,
            matrix={"builtin": "cesaro"},
            q=[0.5, 1.0, 2.0],
            x=[0.0, 0.7],
            n_range=[1, 16],
            **({"x_samples": 4} if theorem == "thm2" else {}),
        )
        run(cfg)
        # every lhs comes from one strong_mean_rows call (one row mean per
        # q); each rhs bracket or omega mean from one more per q, and
        # prop4's rhs reads its bracket table with no mean at all.  The
        # Cesaro rows go the prefix route, prop4's dyadic table power_mean
        if theorem == "prop4":
            assert {**means, **lhs} == {"power_mean": 3, "_prefix_means": 0, "strong_mean_rows": 1}
        else:
            assert {**means, **lhs} == {"power_mean": 0, "_prefix_means": 6, "strong_mean_rows": 1}

    def test_thm5_config_builds_each_gram_once_per_run(self, monkeypatch):
        # one fit call for both x: one phi Gram and one trig Gram per run,
        # and no cache outlives the run
        calls = {"_phi_gram": 0, "_trig_gram": 0}
        for name in calls:
            gram = getattr(measures, name)

            def counted(*args, name=name, gram=gram):
                calls[name] += 1
                return gram(*args)

            monkeypatch.setattr(measures, name, counted)
        cfg = ExperimentConfig.from_file(CONFIGS / "thm5_oscgm2_smooth.json")
        assert cfg.p == 2.0 and len(cfg.x) == 2
        run(cfg)
        assert calls == {"_phi_gram": 1, "_trig_gram": 1}
        run(cfg)
        assert calls == {"_phi_gram": 2, "_trig_gram": 2}

    def test_thm2_config_builds_one_window_setup(self, monkeypatch):
        # one set of p = 2 window means per run, on either route (the smooth
        # spectrum's lags collide, so the lag route)
        setups = []
        for name in ("_lag_means", "_gram_means"):
            build = getattr(measures, name)

            def counted(*args, name=name, build=build):
                setups.append(name)
                return build(*args)

            monkeypatch.setattr(measures, name, counted)
        run(ExperimentConfig.from_file(CONFIGS / "thm2_cesaro_smooth.json"))
        assert setups == ["_lag_means"]

    def test_thm2_config_runs_one_search(self, monkeypatch):
        # every translate-modulus shift is a lane of one Newton search, which
        # starts each lane once, at its grid argument, and ends within 4 jet
        # calls (a fall-back to bisection would take about 25)
        searches = spy_searches(monkeypatch)
        run(ExperimentConfig.from_file(CONFIGS / "thm2_cesaro_smooth.json"))
        assert [s["jets"][0].shape for s in searches] == [(52, 1)]
        assert len(searches[0]["jets"]) <= 4

    def test_config_echo_round_trips(self):
        cfg = make_config(q=[1.0], n_range=[1, 6], blowup_head=6)
        report = run(cfg)
        again = ExperimentConfig.from_dict(report.config)
        report2 = run(again)
        assert records_csv(report) == records_csv(report2)
        assert report.config == report2.config

    def test_config_echo_is_a_copy(self):
        # the echo shares no dict or list with the input: changing the input
        # after run() leaves report.config as it was
        data = dict(
            BASE,
            theorem="thm6",
            spectrum={"alpha": 1.0, "entries": [{"lambda": 1.0, "cos": 1.0}, {"lambda": 3.0, "sin": 0.5}]},
            matrix={"builtin": "riesz", "params": {"weights": [1.0] * 17}},
            majorant={"type": "table", "knots": [[0.0, 0.0], [1.0, 2.0]]},
            q=[1.0],
        )
        report = run(ExperimentConfig.from_dict(data))
        before = json.dumps(report_to_dict(report)["config"], sort_keys=True)
        data["spectrum"]["entries"][0]["cos"] = 7.0
        data["spectrum"]["entries"].append({"lambda": 9.0, "cos": 1.0})
        data["matrix"]["params"]["weights"][0] = 5.0
        data["majorant"]["knots"][1][1] = 3.0
        data["q"].append(2.0)
        assert json.dumps(report_to_dict(report)["config"], sort_keys=True) == before
        assert report.config["spectrum"]["entries"][0] == {"lambda": 1.0, "cos": 1.0}
        assert type(report.config["q"]) is tuple and type(report.config["n_range"]) is tuple


class TestOutputs:
    def test_csv_shape(self):
        report = run(make_config(n_range=[1, 4], blowup_head=4))
        text = records_csv(report, x=0.0, q=1.0)
        lines = text.strip().splitlines()
        assert lines[0] == "n,lhs,rhs,ratio,flags"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1"
        float(first[1]), float(first[2]), float(first[3])

    def test_write_report(self, tmp_path):
        report = run(make_config(q=[1.0, 2.0], n_range=[1, 4], blowup_head=4))
        paths = write_report(report, tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert "report.json" in names
        assert sum(n.startswith("records_") for n in names) == 2
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["summary"]["records"] == 8
        again = ExperimentConfig.from_dict(data["config"])
        assert again.n_range == (1, 4)

    def test_each_records_csv_holds_its_own_series(self, tmp_path):
        report = run(make_config(x=[0.0, 0.7], q=[1.0, 2.0], n_range=[1, 4], blowup_head=4))
        paths = [p for p in write_report(report, tmp_path / "out") if p.suffix == ".csv"]
        assert len(paths) == 4
        for path in paths:
            x, q = (float(part[1:]) for part in path.stem.removeprefix("records_").split("_"))
            series = [r for r in report.records if (r.x, r.q) == (x, q)]
            lines = path.read_text().splitlines()[1:]
            assert [int(line.split(",")[0]) for line in lines] == [1, 2, 3, 4]
            assert lines == [f"{r.n},{r.lhs!r},{r.rhs!r},{r.ratio!r},{';'.join(r.flags)}" for r in series]

    def test_write_report_failure_leaves_no_file(self, tmp_path):
        # a summary value strict JSON cannot hold fails before report.json opens
        report = run(make_config(q=[1.0], n_range=[1, 4], blowup_head=4))
        report.summary["flag_counts"] = {"nan": math.nan}
        with pytest.raises(ValueError):
            write_report(report, tmp_path / "out")
        assert not (tmp_path / "out" / "report.json").exists()

    @staticmethod
    def per_row_table(cfg):
        """The per-(x, q, n) loop of one-row, one-x, one-q strong_mean_rows calls."""
        f = cfg.resolve_function()
        matrix = cfg.resolve_matrix()
        lines = ["x,q,n,strong_mean"]
        ns = range(cfg.n_range[0], cfg.n_range[1] + 1)
        table, sizes = matrix.table(ns)
        for x in cfg.x:
            for q in cfg.q:
                for i, n in enumerate(ns):
                    row = explicit_matrix([table[i, : sizes[i]]]).rows([0])
                    mean = strong_mean_rows(f, [x], row, [q]).item()
                    lines.append(f"{x!r},{q!r},{n},{mean!r}")
        return "\n".join(lines) + "\n"

    def test_strong_mean_table_matches_per_row_loop(self):
        cfgs = [
            ExperimentConfig.from_file(path)
            for path in sorted(CONFIGS.glob("*.json"))
            if "matrix" in json.loads(path.read_text())
        ]
        cfgs.append(
            make_config(
                theorem="thm6",
                matrix={"type": "explicit", "rows": [[1.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]]},
                q=[0.5, 3.0],
                x=[0.0, -1.25, 2.5],
                n_range=[0, 2],
                blowup_head=2,
            )
        )
        assert len(cfgs) == 4
        for cfg in cfgs[:-1]:
            # Cesaro and osc-gm2 rows: the prefix route against one-row tables
            got, want = (
                [line.split(",") for line in table.splitlines()]
                for table in (strong_mean_table(cfg), self.per_row_table(cfg))
            )
            assert [row[:3] for row in got] == [row[:3] for row in want]
            assert [float(row[3]) for row in got[1:]] == pytest.approx(
                [float(row[3]) for row in want[1:]], rel=PREFIX_RTOL, abs=0.0
            )
        # explicit rows keep the dense table, bit for bit
        assert strong_mean_table(cfgs[-1]) == self.per_row_table(cfgs[-1])

    def test_strong_mean_table_one_ladder(self, monkeypatch):
        calls = count_calls(monkeypatch, "partial_sums", owner=QuasiPeriodicFunction)
        cfg = make_config(
            theorem="thm6", matrix={"builtin": "cesaro"}, q=[0.5, 1.0, 2.0], x=[0.0, 0.7]
        )
        assert len(strong_mean_table(cfg).splitlines()) == 1 + 2 * 3 * 16
        assert calls == {"partial_sums": 1}

    def test_strong_mean_table(self):
        cfg = make_config(
            theorem="thm6", matrix={"builtin": "cesaro"}, n_range=[0, 5], blowup_head=5
        )
        table = strong_mean_table(cfg)
        lines = table.strip().splitlines()
        assert lines[0] == "x,q,n,strong_mean"
        assert len(lines) == 7
