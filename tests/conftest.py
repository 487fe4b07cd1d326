import itertools
import math
from collections import Counter

import numpy as np

from apsum import measures
from apsum.spectra import QuasiPeriodicFunction, Spectrum, _difference_rows

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []

# The stated agreement of the prefix route of Riesz-type row means with
# power_mean of their dense table (strong_means module docstring).
PREFIX_RTOL = 1e-12


def record_criterion(name: str, ok: bool, detail: str) -> bool:
    """Collect one acceptance verdict; echoed in the terminal summary."""
    ACCEPTANCE_RESULTS.append((name, ok, detail))
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status}  {name}: {detail}")


def scaled(f, s: float):
    """The function s f, built from s times the cos/sin rows of f."""
    spec = f.spectrum
    terms = zip(spec.freqs.tolist(), *(s * spec.coefs).T.tolist())
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(spec.alpha, terms))


def translate_difference(f, t: float):
    """The function x -> f(x + t) - f(x), built from the difference rows that
    ``measures.modulus_omega`` norms; the constant term drops."""
    lams, rows = _difference_rows(f.spectrum, t)
    terms = zip(lams.tolist(), *rows.T.tolist())
    return QuasiPeriodicFunction(Spectrum.from_cos_sin(f.spectrum.alpha, terms))


def spy_searches(monkeypatch) -> list[dict]:
    """Record each ``measures._sampled_sup`` search made while ``monkeypatch``
    holds: one dict per search with its means ``g``, its arguments, the
    points of each of its jet calls (``jets``) and its result (``sup``)."""
    searches = []
    search = measures._sampled_sup

    def spy(g, t, h, freq, mass, *args, **kwargs):
        jets = []

        def counted(u, jet=False):
            if jet:
                jets.append(np.array(u))
            return g(u, jet=jet)

        out = search(counted, t, h, freq, mass, *args, **kwargs)
        searches.append(dict(g=g, t=t, h=h, freq=freq, mass=mass, args=args, kwargs=kwargs, jets=jets, sup=out))
        return out

    monkeypatch.setattr(measures, "_sampled_sup", spy)
    return searches


def head_tail_bounded(records, head_end: int, factor: float) -> bool:
    """The per-record blow-up test of one (x, q), the oracle for the array
    verdicts of ``experiment.run``: the max ratio past ``head_end`` stays
    within ``factor`` times the max ratio up to ``head_end`` (boundary in
    both parts), or the ratios stopped rising: their max over n in
    (N/2, N] is at most their max over (N/4, N/2], N the largest n.  NaN
    ratios are dropped; with either block empty the head/tail test decides
    alone."""
    ratios = [(r.n, r.ratio) for r in records if not math.isnan(r.ratio)]
    head = [v for n, v in ratios if n <= head_end]
    tail = [v for n, v in ratios if n >= head_end]
    if not head or not tail or max(tail) <= factor * max(head) + 1e-12:
        return True
    top = max(r.n for r in records)
    last = [v for n, v in ratios if top / 2 < n <= top]
    before = [v for n, v in ratios if top / 4 < n <= top / 2]
    return bool(last and before) and max(last) <= max(before)


def record_verdicts(records, max_ratio: float, head_end: int, factor: float) -> dict:
    """The summary verdicts of ``experiment.run`` by passes over the
    records, the oracle for its array verdicts."""
    worst = max(records, key=lambda r: r.ratio)  # first of the largest
    return {
        "max_ratio": worst.ratio,
        "argmax": {"x": worst.x, "q": worst.q, "n": worst.n},
        "regression_ok": any("zero-over-zero" not in r.flags for r in records)
        and not any(r.ratio > max_ratio for r in records)
        and all(
            head_tail_bounded(list(series), head_end, factor)
            for _, series in itertools.groupby(records, key=lambda r: (r.x, r.q))
        ),
        "flag_counts": dict(Counter(fl for r in records for fl in r.flags)),
    }
