"""Experiment configuration, built-in test families, and the runner.

A run is fully described by one JSON document (spectrum and matrix
sources, majorant, exponents, sweep range, grids, thresholds), read with
the number rule and key check of ``spectra``, each absent field at its
declared default.  The runner resolves the inputs, makes one
``ratio_sweep`` of the requested bound shape over n for every (x, q), and
assembles a deterministic report: the sweep's (x, q, n) arrays, which the
verdicts and writers read, a summary with the worst ratio and every verdict
on the run, and the normalized config echoed back so the exact run can be
reproduced from its own report.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .matrices import GM2_C, SIDE_TOL, SummabilityMatrix, load_matrix, matrix_from_dict, side_condition
from .measures import (
    PLAN_COUNT,
    PLAN_TOP,
    ModulusMajorant,
    SamplePlan,
    WindowGrid,
    fit_class_majorant,
    majorant_from_dict,
    resolve_span,
)
from .spectra import (
    QuasiPeriodicFunction,
    Spectrum,
    _keys,
    _number,
    load_spectrum,
    spectrum_from_dict,
    validate_spectrum,
)
from .strong_means import _FLAGS, THEOREMS, RatioRecord, _Sweep, ratio_sweep, strong_mean_rows

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "builtin_spectra",
    "builtin_matrices",
    "run",
    "records_csv",
    "report_to_dict",
    "write_report",
]

# The built-in test functions (gap alpha = 1): (frequency, cos, sin) terms.
BUILTIN_SPECTRA = {
    "smooth": [(1.0, 1.0, 0.0), (10.0, 0.1, 0.0)],
    "lacunary": [(2.0**j, 2.0**-j, 0.0) for j in range(11)],
    "irrational": [(1.0, 1.0, 0.0), (math.sqrt(2.0) * math.pi, 0.5, 0.0)],
    "constant": [(0.0, 1.0, 0.0)],
}
BUILTIN_MATRICES = ("cesaro", "riesz", "osc-gm2")


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


def builtin_spectra(name: str) -> QuasiPeriodicFunction:
    """Built-in test functions; all pass spectrum validation."""
    if name not in BUILTIN_SPECTRA:
        raise ConfigError("spectrum", f"unknown builtin {name!r}")
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(1.0, BUILTIN_SPECTRA[name]))


def builtin_matrices(name: str, params: dict | None = None) -> SummabilityMatrix:
    if name not in BUILTIN_MATRICES:
        raise ConfigError("matrix", f"unknown builtin {name!r}")
    return matrix_from_dict({"type": name, "params": params or {}})


class _naming:
    """``with _naming(field):`` the one mapping of a bad input's error to a
    ConfigError naming ``field`` (a class, cheaper to enter than a generator)."""

    def __init__(self, field: str):
        self.field = field

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is None or issubclass(kind, ConfigError):
            return
        if issubclass(kind, OSError):
            what = "file not found" if issubclass(kind, FileNotFoundError) else "unusable path"
            raise ConfigError(self.field, f"{what}: {exc}") from None
        if issubclass(kind, json.JSONDecodeError):
            raise ConfigError(self.field, f"not valid JSON: {exc}") from None
        if issubclass(kind, (KeyError, TypeError, ValueError, OverflowError)):
            raise ConfigError(self.field, str(exc)) from None


# Per source field: the input of a {"builtin": name} source, of a
# {"file": path} source and of an inline one.  The lambdas look the module
# names up per call, so a wrapped builtin or loader is the one that runs.
_SOURCES = {
    "spectrum": (
        lambda src: builtin_spectra(src["builtin"]),
        lambda path: load_spectrum(path, allow_invalid=True),
        lambda src: QuasiPeriodicFunction(spectrum_from_dict(src)),
    ),
    "matrix": (
        lambda src: builtin_matrices(src["builtin"], src.get("params")),
        load_matrix,
        matrix_from_dict,
    ),
}


def _resolve(field: str, src, base_dir: Path):
    """The function or matrix a source describes, a relative file read from
    ``base_dir``; any error in it is a ConfigError naming ``field``."""
    if not isinstance(src, dict):
        raise ConfigError(field, "must be an object")
    builtin, load, inline = _SOURCES[field]
    with _naming(field):
        if "builtin" in src:
            _keys(src, ("builtin", "params") if field == "matrix" else ("builtin",), field)
            return builtin(src)
        if "file" in src:
            _keys(src, ("file", "allow_invalid") if field == "spectrum" else ("file",), field)
            return load(base_dir / src["file"])
        return inline(src)


def _real(value, field: str, kind=float, ok=None, rule=""):
    """``kind`` of a config number as ``spectra._number`` reads it; an int
    takes integral values only (16.0 is 16, 2.7 is an error).  A value
    failing ``ok`` or anything else is a ConfigError naming ``field``."""
    with _naming(field):
        out = _number(value)
    if kind is int and not out.is_integer():
        raise ConfigError(field, f"must be an integer, got {value!r}")
    if ok is not None and not ok(out):
        raise ConfigError(field, f"must be {rule}, got {value!r}")
    return kind(out)


def _numbers(value, field: str, ok, rule: str) -> tuple[float, ...]:
    """A number or list of numbers as a nonempty tuple of distinct values,
    each as ``_real`` reads it, else ConfigError: an empty list would check
    nothing and a repeated value would repeat its records."""
    values = value if isinstance(value, (list, tuple)) else [value]
    out = tuple(_real(v, field, ok=ok, rule=rule) for v in values)
    if not out:
        raise ConfigError(field, "must not be empty")
    if len(set(out)) < len(out):  # 0.0 == -0.0, so they count as one
        raise ConfigError(field, f"must not repeat a value, got {value!r}")
    return out


def _majorant_source(src: dict | None) -> SamplePlan | ModulusMajorant:
    """The sample plan of a "fit" majorant (the default: an integer count
    >= 1 and a finite top > 0), else the majorant."""
    src = src if src is not None else {"type": "fit"}
    if not isinstance(src, dict):
        raise ConfigError("majorant", "must be an object")
    with _naming("majorant"):
        if src.get("type") != "fit":
            return majorant_from_dict(src)
        _keys(src, ("type", "count", "top"), "majorant")
    count = _real(src.get("count", PLAN_COUNT), "majorant", int)
    top = _real(src.get("top", PLAN_TOP), "majorant")
    if not (count >= 1 and 0.0 < top < math.inf):
        raise ConfigError("majorant", f"fit needs count >= 1 and 0 < top < inf, got {src!r}")
    return SamplePlan.default(top=top, count=count)


def _copied(value):
    """A JSON-shaped value with its dicts, lists and tuples copied and its
    scalars shared; a ``WindowGrid`` as the dict of its fields."""
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_copied(v) for v in value)
    if isinstance(value, WindowGrid):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's config.  ``from_dict`` checks the fields, then resolves
    the inputs once: the function (relative files are read from
    ``base_dir``), the matrix with the rows of ``n_range`` read once
    through ``SummabilityMatrix.rows``, which every later reader of those
    rows shares, and the majorant source.  They live on the
    instance outside the fields, so ``to_dict`` echoes the config only.
    ``allow_invalid`` lets in a spectrum that fails validation; ``run`` and
    ``strong_mean_table`` still refuse it."""

    spectrum: dict
    theorem: str = "prop4"
    matrix: dict | None = None
    majorant: dict | None = None
    p: float = 2.0
    q: tuple[float, ...] = (1.0,)
    c: float = GM2_C
    alpha: float | None = None
    n_range: tuple[int, int] = (1, 64)
    x: tuple[float, ...] = (0.0,)
    x_samples: int = 16
    grid: WindowGrid = WindowGrid()
    thm5_literal_exponent: bool = False
    max_ratio: float = 50.0
    blowup_head: int = 8
    blowup_factor: float = 2.0
    side_tol: float = SIDE_TOL
    output: str | None = None

    @classmethod
    def from_dict(
        cls, data: dict, base_dir: Path | None = None, allow_invalid: bool = False
    ) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        for key in data:
            if key not in _DEFAULTS:
                raise ConfigError(key, "unknown field")
        if "spectrum" not in data:
            raise ConfigError("spectrum", "required")
        raw = {**_DEFAULTS, **data}
        theorem = raw["theorem"]
        if theorem not in THEOREMS:
            raise ConfigError("theorem", f"unknown theorem {theorem!r}")
        q = _numbers(raw["q"], "q", lambda v: v > 0.0, "> 0")
        n_range = raw["n_range"]
        if not (isinstance(n_range, (list, tuple)) and len(n_range) == 2):
            raise ConfigError("n_range", "must be an integer pair [lo, hi]")
        n_range = lo, hi = tuple(_real(v, "n_range", int) for v in n_range)
        if not 0 <= lo <= hi:
            raise ConfigError("n_range", f"need 0 <= lo <= hi, got {list(n_range)}")
        x = _numbers(raw["x"], "x", math.isfinite, "finite")
        output = raw["output"]
        if output is not None and not isinstance(output, str):
            raise ConfigError("output", f"must be null or a path string, got {output!r}")
        literal = raw["thm5_literal_exponent"]
        if not isinstance(literal, bool):
            raise ConfigError("thm5_literal_exponent", f"must be true or false, got {literal!r}")
        with _naming("grid"):
            grid = WindowGrid(**data["grid"]) if "grid" in data else raw["grid"]
        cfg = cls(
            spectrum=raw["spectrum"],
            theorem=theorem,
            matrix=raw["matrix"],
            majorant=raw["majorant"],
            p=_real(raw["p"], "p", ok=lambda v: v > 1.0, rule="> 1 (or inf)"),
            q=q,
            c=_real(raw["c"], "c", ok=lambda v: 1.0 < v < math.inf, rule="finite and > 1"),
            alpha=None if raw["alpha"] is None else _real(raw["alpha"], "alpha"),
            n_range=n_range,
            x=x,
            x_samples=_real(raw["x_samples"], "x_samples", int, lambda v: v >= 1, ">= 1"),
            grid=grid,
            thm5_literal_exponent=literal,
            max_ratio=_real(raw["max_ratio"], "max_ratio", ok=lambda v: v > 0.0, rule="> 0"),
            # outside n_range the blow-up head or tail is empty and the test off
            blowup_head=_real(raw["blowup_head"], "blowup_head", int, lambda v: lo <= v <= hi,
                               f"in n_range [{lo}, {hi}] (the default is {_DEFAULTS['blowup_head']})"),
            blowup_factor=_real(raw["blowup_factor"], "blowup_factor", ok=lambda v: v > 0.0, rule="> 0"),
            side_tol=_real(raw["side_tol"], "side_tol", ok=lambda v: v >= 0.0, rule=">= 0"),
            output=output,
        )
        for field, readers in _READERS.items():
            if theorem not in readers and getattr(cfg, field) != _DEFAULTS[field]:
                raise ConfigError(field, f"{theorem} reads no {field}; only {', '.join(readers)} read it")
        # every theorem but thm2 bounds by a majorant: a fitted one (the
        # default) reads p, a given one does not
        majorant = None if theorem == "thm2" else _majorant_source(cfg.majorant)
        if cfg.p != _DEFAULTS["p"] and not (theorem == "thm2" or isinstance(majorant, SamplePlan)):
            raise ConfigError("p", f"only thm2 and a fit majorant read p; this {theorem} majorant is given")
        base_dir = Path(base_dir or ".")
        f, refusal = cfg._load_function(base_dir, allow_invalid)
        if cfg.theorem in ("thm2", "thm5", "thm6") and cfg.matrix is None:
            raise ConfigError("matrix", f"required for theorem {cfg.theorem}")
        # frozen fields; the resolved inputs live beside them
        cfg.__dict__.update(
            _function=f,
            _refusal=refusal,
            _matrix=cfg._load_matrix(base_dir),
            _majorant=majorant,
        )
        return cfg

    @classmethod
    def from_file(cls, path, allow_invalid: bool = False) -> "ExperimentConfig":
        path = Path(path)
        with open(path) as fh, _naming("<file>"):  # a missing file names no field
            data = json.load(fh)
        return cls.from_dict(data, base_dir=path.parent, allow_invalid=allow_invalid)

    def to_dict(self) -> dict:
        """The fields, the grid as a dict of its fields, each dict, list and
        tuple copied: a later change to the input dicts does not reach it."""
        return {f.name: _copied(getattr(self, f.name)) for f in fields(self)}

    def _load_function(
        self, base_dir: Path, allow_invalid: bool
    ) -> tuple[QuasiPeriodicFunction, str | None]:
        """The function, and why a run refuses it when only
        ``allow_invalid`` let its spectrum in (else None)."""
        src = self.spectrum
        f = _resolve("spectrum", src, base_dir)
        if self.alpha is not None and not math.isclose(self.alpha, f.spectrum.alpha, rel_tol=1e-12):
            msg = f"config alpha {self.alpha} does not match spectrum alpha {f.spectrum.alpha}"
            raise ConfigError("alpha", msg)
        waived = src.get("allow_invalid", False)  # only a file source may carry it
        if not isinstance(waived, bool):
            raise ConfigError("spectrum", f"allow_invalid must be true or false, got {waived!r}")
        report = validate_spectrum(f)
        if report.ok or waived:
            return f, None
        refusal = f"invalid spectrum: {report}"
        if not allow_invalid:
            raise ConfigError("spectrum", refusal)
        return f, refusal

    def _load_matrix(self, base_dir: Path) -> SummabilityMatrix | None:
        """The matrix with the rows of ``n_range`` checked once
        (``SummabilityMatrix.rows``): the weights of a Riesz-type matrix,
        else the table, which the matrix keeps for ``run`` and
        ``strong_mean_table``."""
        if self.matrix is None:
            return None
        matrix = _resolve("matrix", self.matrix, base_dir)
        ns = range(self.n_range[0], self.n_range[1] + 1)
        with _naming("matrix"):
            matrix.rows(ns)
        return matrix

    def resolve_function(self) -> QuasiPeriodicFunction:
        return self._function

    def resolve_matrix(self) -> SummabilityMatrix | None:
        return self._matrix

    def _run_inputs(self) -> tuple[QuasiPeriodicFunction, SummabilityMatrix | None]:
        """Function and matrix of a run, unless only allow_invalid let the spectrum in."""
        if self._refusal is not None:
            raise ConfigError("spectrum", self._refusal)
        return self._function, self._matrix


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

# The theorems that read each field some bound shapes never read.  Others
# take it at its default only, which every report echo carries, so an echo
# reruns as any theorem.
_READERS = {
    "grid": ("thm2",),
    "x_samples": ("thm2",),
    "c": ("thm5",),
    "thm5_literal_exponent": ("thm5",),
    "majorant": ("prop4", "thm5", "thm6"),
    "side_tol": ("thm2", "thm5", "thm6"),
}


@dataclass(frozen=True)
class ExperimentReport:
    """A run's config echo, its sweep of (x, q, n) arrays and its summary."""

    config: dict
    sweep: _Sweep
    summary: dict

    @property
    def records(self) -> list[RatioRecord]:
        """One ``RatioRecord`` per (x, q, n), built on each read."""
        return self.sweep.records()


def _first_largest(ratio: np.ndarray) -> int:
    """The flat index of the first of the largest ratios, as Python's
    ``max`` picks it: a NaN is never larger, so it wins only in front."""
    flat = ratio.ravel()
    nan = np.isnan(flat)
    return 0 if nan[0] else int(np.argmax(np.where(nan, -math.inf, flat)))


def _head_tail_bounded(ratio: np.ndarray, n_values, head_end: int, factor: float) -> bool:
    """No blow-up in any series, a row of ``ratio`` over ``n_values``: its
    max ratio past ``head_end`` stays within ``factor`` times its max ratio
    up to ``head_end`` (boundary in both parts), or its ratios stopped
    rising: their max over n in (N/2, N] is at most their max over
    (N/4, N/2], N the largest n.  NaN ratios are dropped; with either block
    empty the head/tail test decides alone."""
    n = np.asarray(n_values)
    big = n.max()
    blocks = np.array([n <= head_end, n >= head_end, big / 2 < n, (big / 4 < n) & (n <= big / 2)])
    # per block and series the max ratio, NaN where the block holds none
    tops = np.where(blocks[:, None, :], ratio.reshape(-1, n.size), math.nan)
    head, tail, last, before = np.fmax.reduce(tops, axis=-1)
    bounded = np.isnan(head) | np.isnan(tail) | (tail <= factor * head + 1e-12)
    return bool((bounded | (last <= before)).all())  # False where either is NaN


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one ``ratio_sweep`` for every (x, q) of the config and judge it:
    the ratio cap on every (x, q, n), the blow-up test on each (x, q), and
    the side condition on the matrix rows (None for prop4, which reads
    none).  The fitted majorants of every x come from one fit call, and the
    verdicts from the sweep's arrays."""
    f, matrix = cfg._run_inputs()
    ns = range(cfg.n_range[0], cfg.n_range[1] + 1)

    if cfg.theorem == "thm2":
        span = resolve_span(f, cfg.grid)
        x_grid = tuple(np.linspace(0.0, span, cfg.x_samples, endpoint=False))
        points = [(None, None)]
    else:
        x_grid = None
        majorants = [cfg._majorant] * len(cfg.x)
        if isinstance(cfg._majorant, SamplePlan):
            majorants = [w for w, _ in fit_class_majorant(f, cfg.x, cfg.p, cfg._majorant)]
        points = list(zip(cfg.x, majorants))
    sweep = ratio_sweep(
        f, cfg.theorem, ns, cfg.q, points, matrix, x_grid, cfg.p, cfg.grid, cfg.c,
        cfg.thm5_literal_exponent,
    )
    side_ok = None if cfg.theorem == "prop4" else side_condition(matrix, ns, cfg.side_tol)[0]
    summary = {
        "theorem": cfg.theorem,
        "records": sweep.ratio.size,
        **_verdicts(sweep, cfg.max_ratio, cfg.blowup_head, cfg.blowup_factor),
        "side_condition_ok": side_ok,
    }
    return ExperimentReport(config=cfg.to_dict(), sweep=sweep, summary=summary)


def _verdicts(sweep: _Sweep, max_ratio: float, head_end: int, factor: float) -> dict:
    """The summary's verdicts on a sweep, from its arrays: the first of its
    largest ratios and its (x, q, n), the regression verdict (not every
    record 0/0, no ratio above ``max_ratio``, no blow-up in any (x, q)) and
    the records per flag, in the order the flags first appear."""
    worst = _first_largest(sweep.ratio)
    i, j, k = np.unravel_index(worst, sweep.ratio.shape)
    codes = sweep.code.ravel()
    counts = np.bincount(codes, minlength=len(_FLAGS)).tolist()
    flagged = sorted((int(np.argmax(codes == c)), c) for c in range(1, len(_FLAGS)) if counts[c])
    return {
        "max_ratio": sweep.ratio.ravel()[worst].item(),
        "argmax": {"x": sweep.xs[i], "q": sweep.qs[j], "n": sweep.n_values[k]},
        # a run whose every record is 0/0 checked nothing, so it fails
        "regression_ok": bool((sweep.code != 1).any())
        and not (sweep.ratio > max_ratio).any()  # a NaN ratio passes the cap
        and _head_tail_bounded(sweep.ratio, sweep.n_values, head_end, factor),
        "flag_counts": {_FLAGS[c][0]: counts[c] for _, c in flagged},
    }


def strong_mean_table(cfg: ExperimentConfig) -> str:
    """CSV table of per-n strong means (no bound side): x,q,n,value."""
    f, matrix = cfg._run_inputs()
    if matrix is None:
        raise ConfigError("matrix", "strong-mean table needs a matrix")
    lo, hi = cfg.n_range
    means = strong_mean_rows(f, cfg.x, matrix.rows(range(lo, hi + 1)), cfg.q).tolist()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "q", "n", "strong_mean"])
    for i, x in enumerate(cfg.x):
        for q, values in zip(cfg.q, means):
            for n, value in enumerate(values[i], lo):
                writer.writerow([repr(x), repr(q), n, repr(value)])
    return buf.getvalue()


def records_csv(report: ExperimentReport, x: float | None = None, q: float | None = None) -> str:
    """CSV for the (x, q) lanes of the sweep (or all when unfiltered): columns
    n,lhs,rhs,ratio,flags with deterministic shortest-roundtrip floats."""
    sweep = report.sweep
    flags = [";".join(names) for names in _FLAGS]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "lhs", "rhs", "ratio", "flags"])
    for i, xi in enumerate(sweep.xs):
        for j, qj in enumerate(sweep.qs):
            if (x is None or xi == x) and (q is None or qj == q):
                values = (map(repr, a[i, j].tolist()) for a in (sweep.lhs, sweep.rhs, sweep.ratio))
                writer.writerows(zip(sweep.n_values, *values, [flags[c] for c in sweep.code[i, j].tolist()]))
    return buf.getvalue()


def _finite(value: float) -> float | None:
    """inf or NaN as null, which strict JSON can hold; the record's flag
    (``infinite-ratio``) says why."""
    return value if math.isfinite(value) else None


def _echo(value):
    """A config value as strict JSON can hold it: an infinite number (p, q
    or a verdict bound) as its repr, the string "inf", which ``_real``
    takes back."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _echo(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_echo(v) for v in value]
    return value


def _strict_summary(summary: dict) -> dict:
    """The run summary as strict JSON, as ``report_to_dict`` writes it."""
    return dict(summary, max_ratio=_finite(summary["max_ratio"]), argmax=_echo(summary["argmax"]))


def report_to_dict(report: ExperimentReport) -> dict:
    """The report as strict JSON, a record per (x, q, n) of the sweep: no NaN
    or Infinity anywhere; q = inf is echoed as the config writes it."""
    return {
        "config": _echo(report.config),
        "summary": _strict_summary(report.summary),
        "records": [
            {
                "x": x,
                "q": _echo(q),
                "n": n,
                "lhs": _finite(lhs),
                "rhs": _finite(rhs),
                "ratio": _finite(ratio),
                "flags": list(flags),
            }
            for x, q, n, lhs, rhs, ratio, flags in zip(*report.sweep.columns())
        ],
    }


def _slice_tag(x: float | None, q: float) -> str:
    xs = "all" if x is None else repr(x)
    return f"x{xs}_q{q!r}"


def write_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write report.json plus one records CSV per (x, q) slice."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    jpath = out / "report.json"
    # serialised first, so that a failure leaves no partial file
    text = json.dumps(report_to_dict(report), indent=2, sort_keys=True, allow_nan=False)
    jpath.write_text(text + "\n")
    paths.append(jpath)
    s = report.sweep
    combos = sorted({(x, q) for x in s.xs for q in s.qs if s.n_values}, key=lambda t: (repr(t[0]), t[1]))
    for x, q in combos:
        cpath = out / f"records_{_slice_tag(x, q)}.csv"
        with open(cpath, "w") as fh:
            fh.write(records_csv(report, x, q))
        paths.append(cpath)
    return paths
