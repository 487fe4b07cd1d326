"""apsum benchmark: time one workload and check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (``src/apsum`` must exist).  With
``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  ``--workload all`` runs every workload in turn and prints
one JSON line per workload before the combined line.  Earlier lines
record the thread environment and library versions, each metric with
its unit, the sample count, the tail percentile and any failures.

Set-up is timed in SETUP_PROBES fresh interpreters; the samples run in
one more fresh interpreter (``worker.py``).  Sample times are scaled to
a fixed machine speed with the probe in ``speed.py``; the raw median is
printed too.  Threads are left at the environment's defaults, which is
what ``apsum verify`` users get.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from spans import MODULES  # noqa: E402

WORKLOADS = ("lacunary-thm6", "smooth-thm5", "smooth-thm2", "paper-checks")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, probes included
THREAD_VARS = ("APSUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "spectra.calls": "count",
    "spectra.points": "count",
    "kernels.direct_calls": "count",
    "kernels.direct_s": "s",
    "kernels.table_s": "s",
    "kernels.max_gap": "1",
    "kernels.quad_failures": "count",
    "matrices.row_s": "s",
    "matrices.class_calls": "count",
    "matrices.class_s": "s",
    "measures.fit_s": "s",
    "measures.moduli_calls": "count",
    "measures.omega_calls": "count",
    "measures.stepanov_calls": "count",
    "measures.omega_s": "s",
    "strong_means.mean_calls": "count",
    "strong_means.mean_s": "s",
    "strong_means.rhs_s": "s",
    "strong_means.omega_reuse": "1",
    "experiment.resolve_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.spans": "count",
    "trace.coverage": "1",
    "trace.overhead_s": "s",
}


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    env = {var: os.environ.get(var) for var in THREAD_VARS}
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        numpy=version("numpy"),
        scipy=version("scipy"),
    )
    return env


def time_setup(name: str, seed: int, deadline: float) -> list[float]:
    """Seconds from starting a fresh interpreter until its inputs are ready.

    Not scaled by the speed probe: a probe run in this process next to a
    starting or exiting child can read twice its usual time, which makes
    the scaled figure noisier than the raw one."""
    times = []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(i)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


def run_worker(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds), str(int(trace))]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter())
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"sample process for {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return p, sorted(values)[max(0, math.ceil(p / 100.0 * n) - 1)]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setup = time_setup(name, seed, deadline)
    out = run_worker(name, seed, seconds, trace, deadline)
    samples = out["samples"]
    failed = [s for s in samples if s["problems"]]
    for s in failed[:3]:
        print(f"{name}: failed sample: {'; '.join(s['problems'])}", file=sys.stderr)
    plain = [s for s in samples if not s["traced"]]
    walls = [speed.scaled(s["wall_s"], *s["probe_s"]) for s in plain]
    print(f"{name}: env {json.dumps(environment(), sort_keys=True)}")
    summary = {
        "samples": len(samples),
        "failed_frac": len(failed) / len(samples),
        "raw_run_s": statistics.median(s["wall_s"] for s in plain),
        "probe_s": statistics.median(p for s in samples for p in s["probe_s"]),
    }
    if trace:
        layers = out["layers"]
        traced_wall = statistics.median(
            speed.scaled(s["wall_s"], *s["probe_s"]) for s in samples if s["traced"]
        )
        metrics = {
            k: statistics.median(layer[k] for layer in layers)
            for k in PER_LAYER
            if k in layers[0]
        }
        metrics["kernels.max_gap"] = max(layer["kernels.max_gap"] for layer in layers)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        units = PER_LAYER
    else:
        metrics = {
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(speed.scaled(s["cpu_s"], *s["probe_s"]) for s in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        units = END_TO_END
        tail = tail_percentile(walls)
        if tail:
            summary[f"run_s_p{tail[0]}"] = tail[1]
    for k, v in {**metrics, **summary}.items():
        print(f"{name}: {k} = {v:.6g} {units.get(k, '')}".rstrip())
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "apsum" / "__init__.py").is_file():
        print(f"no apsum sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: measure(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for n, r in results.items():
        print(json.dumps({"workload": n, **r}))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
