import json
import math
from pathlib import Path

import numpy as np
import pytest

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
from apsum import experiment, matrices, measures, strong_means
from apsum.matrices import MatrixError, class_constants
from apsum.spectra import QuasiPeriodicFunction, validate_spectrum
from apsum.strong_means import strong_mean_rows

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
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(
                {"spectrum": {"file": "nope.json"}}, base_dir=tmp_path
            )
        assert err.value.field == "spectrum"

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
        [("u_samples", 256), ("window_length", 2.0), ("u_span", 3.0), ("refine", False)],
    )
    def test_every_grid_field_moves_the_rhs(self, field, value):
        base = run(shipped("thm2_cesaro_smooth")).records
        moved = run(shipped("thm2_cesaro_smooth", grid={field: value})).records
        assert [r.n for r in moved] == [r.n for r in base]
        assert [r.rhs for r in moved] != [r.rhs for r in base]


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
        cesaro = matrices._cesaro_table
        monkeypatch.setattr(
            matrices, "_cesaro_table", lambda ns: builds.append(ns.tolist()) or cesaro(ns)
        )
        cfg = ExperimentConfig.from_dict(data, base_dir=tmp_path)
        f, matrix = cfg.resolve_function(), cfg.resolve_matrix()
        run(cfg)
        strong_mean_table(cfg)
        assert len(loads) == 1
        assert cfg.resolve_function() is f and cfg.resolve_matrix() is matrix
        # one table, built at load, read by run() and strong_mean_table()
        assert builds == [list(range(1, 17))]

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
        record = strong_means._record
        monkeypatch.setattr(
            strong_means,
            "_record",
            lambda x, q, n, lhs, rhs: record(x, q, n, lhs, rhs / (n + 1) ** power),
        )
        assert not run(shipped(name)).summary["regression_ok"]


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
    def test_one_power_mean_per_q_and_side(self, monkeypatch, theorem):
        calls = count_calls(monkeypatch, "power_mean", "strong_mean_rows")
        cfg = make_config(
            theorem=theorem,
            matrix={"builtin": "cesaro"},
            q=[0.5, 1.0, 2.0],
            x=[0.0, 0.7],
            n_range=[1, 16],
            **({"x_samples": 4} if theorem == "thm2" else {}),
        )
        run(cfg)
        # every lhs comes from one strong_mean_rows call (one power_mean per
        # q); each rhs bracket or omega mean from one more power_mean per q,
        # and prop4's rhs reads its bracket table with no mean at all
        sides = 1 if theorem == "prop4" else 2
        assert calls == {"power_mean": 3 * sides, "strong_mean_rows": 1}

    def test_thm2_config_builds_one_window_setup(self, monkeypatch):
        grams = []
        gram = measures._trig_gram

        def counted(*args):
            grams.append(args[1])
            return gram(*args)

        monkeypatch.setattr(measures, "_trig_gram", counted)
        run(ExperimentConfig.from_file(CONFIGS / "thm2_cesaro_smooth.json"))
        assert len(grams) == 1

    def test_thm2_config_runs_one_search(self, monkeypatch):
        # every translate-modulus shift is a lane of one golden-section search
        lanes = []
        search = measures._golden_max

        def counted(func, a, b, *args):
            lanes.append(len(a))
            return search(func, a, b, *args)

        monkeypatch.setattr(measures, "_golden_max", counted)
        run(ExperimentConfig.from_file(CONFIGS / "thm2_cesaro_smooth.json"))
        assert lanes == [52]

    def test_config_echo_round_trips(self):
        cfg = make_config(q=[1.0], n_range=[1, 6], blowup_head=6)
        report = run(cfg)
        again = ExperimentConfig.from_dict(report.config)
        report2 = run(again)
        assert records_csv(report) == records_csv(report2)
        assert report.config == report2.config


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
                    row = table[i, : sizes[i]][None]
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
        for cfg in cfgs:
            assert strong_mean_table(cfg) == self.per_row_table(cfg)

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
