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
