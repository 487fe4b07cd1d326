"""One sample process: times seeded samples of one workload.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Run by ``run.py`` in a fresh interpreter.  Sample i of a run draws its
inputs from (SEED, i), so no timed input was seen earlier in the process
and apsum's module-level caches cannot serve it.  Samples start until
the next one would be expected to end after SECONDS; the speed probe
runs before and after each.  With TRACE=1 the samples alternate traced
and untraced, and the untraced ones give the tracing overhead.  Prints
one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def timed(work, inputs):
    """(result, wall_s, cpu_s, error); cpu_s is user + sys of all threads."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result, error = work.execute(inputs), None
    except Exception:  # a failed sample is counted, not fatal
        result, error = None, traceback.format_exc(limit=3)
    return result, time.perf_counter() - t0, time.process_time() - c0, error


def digest_with_threads(work, inputs, threads: str) -> str:
    """Digest of an untimed re-run of ``inputs`` with APSUM_THREADS set."""
    old = os.environ.get("APSUM_THREADS")
    os.environ["APSUM_THREADS"] = threads
    try:
        return workloads.report_digest(work.execute(inputs), ROOT)
    finally:
        if old is None:
            del os.environ["APSUM_THREADS"]
        else:
            os.environ["APSUM_THREADS"] = old


def main(name: str, seed: int, seconds: float, traced: bool) -> dict:
    work = workloads.WORKLOADS[name]
    tracer = spans.Tracer() if traced else None
    samples, layers, first = [], [], None
    start = time.perf_counter()
    while True:
        index = len(samples)
        inputs = work.make(workloads.inputs_rng(seed, index))
        use_trace = traced and index % 2 == 0
        before = speed.probe()
        if use_trace:
            tracer.install()
        try:
            result, wall, cpu, error = timed(work, inputs)
        finally:
            if use_trace:
                tracer.uninstall()
        after = speed.probe()
        problems = [error] if error else work.check(inputs, result)
        sample = {
            "wall_s": wall,
            "cpu_s": cpu,
            "probe_s": [before, after],
            "traced": use_trace,
            "problems": problems,
        }
        if use_trace:
            layer = tracer.take(wall)
            layer["kernels.max_gap"] = (
                workloads.kernel_gap(result) if result is not None and not work.reports else 0.0
            )
            layers.append(layer)
        if index == 0 and result is not None:
            first = (inputs, result)
        samples.append(sample)
        elapsed = time.perf_counter() - start
        expected = statistics.median(s["wall_s"] for s in samples)
        # a traced run needs an untraced sample for the overhead
        if elapsed + expected > seconds and not (traced and index == 0):
            break

    # The report must not depend on the thread count or on tracing.
    if work.reports and first is not None:
        inputs, report = first
        want = workloads.report_digest(report, ROOT)
        reruns = {"APSUM_THREADS=2": "2", "tracing off": "1"} if traced else {"APSUM_THREADS=2": "2"}
        for label, threads in reruns.items():
            try:
                same = digest_with_threads(work, inputs, threads) == want
            except Exception:  # a failed re-run fails the sample it repeats
                same = False
            if not same:
                samples[0]["problems"].append(f"report.json differs with {label}")

    return {
        "samples": samples,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    name, seed, seconds, traced = sys.argv[1:5]
    out = main(name, int(seed), float(seconds), traced == "1")
    print(json.dumps(out))
