"""Per-layer tracing of apsum from the outside.

``Tracer.install`` wraps every public function and public method of the
six apsum modules and rebinds the wrappers wherever callers look the
names up: module globals (so ``strong_means.partial_sum_direct`` and
``experiment.fit_class_majorant`` are the traced versions) and class
attributes (so ``f(x)``, ``f.term_values`` and ``matrix.row`` are traced).
Each call records one span (id, parent id, name, start, end, self time)
in memory; a per-thread span stack turns child time into self time.
``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import types
from time import perf_counter

import numpy as np

MODULES = ("spectra", "kernels", "matrices", "measures", "strong_means", "experiment")

# Evaluation methods whose span records points = evaluation points x
# entries, with the position and name of the argument holding the points
# (None: one point per call).
EVALUATORS = {
    "spectra.QuasiPeriodicFunction.__call__": (1, "x"),
    "spectra.QuasiPeriodicFunction.term_values": None,
    "spectra.QuasiPeriodicFunction.second_difference": (2, "t"),
    "spectra.QuasiPeriodicFunction.symmetric_translate": (2, "t"),
}

# Inclusive-time groups: a span adds its duration to a group only when no
# span of the same group is open above it, so recursion is not counted twice.
GROUPS = {
    "kernels.direct": ("kernels.partial_sum_direct",),
    "kernels.table": (
        "kernels.partial_sum_kernel_table",
        "kernels.partial_sum_kernel_sweep",
        "kernels.partial_sum_kernel",
    ),
    "matrices.row": ("matrices.SummabilityMatrix.row",),
    "matrices.class": (
        "matrices.class_membership",
        "matrices.is_ms",
        "matrices.ms_constant",
        "matrices.rbvs_constant",
        "matrices.gm_constant",
        "matrices.gm2_constant",
    ),
    "measures.fit": ("measures.fit_class_majorant", "measures.fit_majorant"),
    "measures.omega": ("measures.modulus_omega",),
    "strong_means.mean": ("strong_means.strong_mean", "strong_means.dyadic_strong_mean"),
    "strong_means.rhs": (
        "strong_means.prop_dyadic_rhs",
        "strong_means.ms_rows_rhs",
        "strong_means.gm2_rows_rhs",
        "strong_means.omega_rows_rhs",
    ),
    "experiment.resolve": (
        "experiment.ExperimentConfig.from_dict",
        "experiment.ExperimentConfig.from_file",
        "experiment.ExperimentConfig.resolve_function",
        "experiment.ExperimentConfig.resolve_matrix",
        "experiment.builtin_spectra",
        "experiment.builtin_matrices",
    ),
}
GROUPS.update({f"module.{m}": () for m in MODULES})  # membership by prefix

CLASS_CONSTANTS = ("ms_constant", "rbvs_constant", "gm_constant", "gm2_constant")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.open = [], dict.fromkeys(GROUPS, 0)
        return local.stack, local.open

    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        groups = tuple(g for g, members in GROUPS.items() if name in members)
        groups += (f"module.{module}",)
        evaluator = name in EVALUATORS
        points_arg = EVALUATORS.get(name)
        lookups = name == "strong_means.omega_rows_rhs"
        spans = self.spans
        ids = self._ids
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, opened = state()
            work = 0
            if evaluator:
                work = len(args[0].spectrum.entries)
                if points_arg is not None:
                    work *= int(np.size(_arg(args, kwargs, *points_arg)))
            elif lookups:
                work = int(np.count_nonzero(_arg(args, kwargs, 0, "row")))
            outer = tuple(g for g in groups if not opened[g])
            for g in groups:
                opened[g] += 1
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            error = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                for g in groups:
                    opened[g] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], parent, name, t0, t1, dur - frame[1], outer, work, error))

        return traced

    # ------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the public functions and methods of the six modules."""
        originals: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"apsum.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    originals[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(short, obj)
        for mod in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "apsum"]:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and isinstance(obj, types.FunctionType):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, short: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, types.FunctionType):
                new = self._wrap(name, raw)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # ----------------------------------------------------- aggregate

    def take(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        spans = self.spans[:]
        self.spans.clear()  # the wrappers hold this list
        calls: dict[str, int] = {}
        work: dict[str, int] = {}
        group_s = dict.fromkeys(GROUPS, 0.0)
        self_s = dict.fromkeys(MODULES, 0.0)
        quad_failures = 0
        for _id, _parent, name, t0, t1, own, outer, w, error in spans:
            calls[name] = calls.get(name, 0) + 1
            if w:
                work[name] = work.get(name, 0) + w
            self_s[name.split(".", 1)[0]] += own
            for g in outer:
                group_s[g] += t1 - t0
            if error == "QuadratureToleranceError" and "module.kernels" in outer:
                quad_failures += 1

        def count(*names):
            return sum(calls.get(n, 0) for n in names)

        lookups = work.get("strong_means.omega_rows_rhs", 0)
        omega_calls = count("measures.modulus_omega")
        out = {
            "spectra.calls": count(*EVALUATORS),
            "spectra.points": sum(work.get(n, 0) for n in EVALUATORS),
            "kernels.direct_calls": count("kernels.partial_sum_direct"),
            "kernels.direct_s": group_s["kernels.direct"],
            "kernels.table_s": group_s["kernels.table"],
            "kernels.quad_failures": quad_failures,
            "matrices.row_s": group_s["matrices.row"],
            "matrices.class_calls": count(*(f"matrices.{n}" for n in CLASS_CONSTANTS)),
            "matrices.class_s": group_s["matrices.class"],
            "measures.fit_s": group_s["measures.fit"],
            "measures.moduli_calls": count(
                "measures.pointwise_modulus", "measures.shifted_difference_mean"
            ),
            "measures.omega_calls": omega_calls,
            "measures.stepanov_calls": count("measures.stepanov_norm"),
            "measures.omega_s": group_s["measures.omega"],
            "strong_means.mean_calls": count(*GROUPS["strong_means.mean"]),
            "strong_means.mean_s": group_s["strong_means.mean"],
            "strong_means.rhs_s": group_s["strong_means.rhs"],
            "strong_means.omega_reuse": (1.0 - omega_calls / lookups) if lookups else 0.0,
            "experiment.resolve_s": group_s["experiment.resolve"],
            "trace.spans": len(spans),
            "trace.coverage": sum(self_s.values()) / wall_s,
        }
        out.update({f"{m}.self_s": v for m, v in self_s.items()})
        return out

