"""In-memory span tracing of the solver's layers, installed from outside.

``Tracer`` replaces functions and methods of ``operators``, ``grids``,
``hermite``, ``stepping``, ``observables`` and ``experiments`` with wrappers
that record one span (name, start, end, parent) per call, and puts the
originals back on exit. Nothing in the package is edited; a target that a
later version renames is reported on stderr and left untraced. Three
bindings need care:

- ``stepping.integrate`` binds ``record_fn=observables.sample_record`` as a
  default at import time, so default arguments that hold a wrapped function
  are rebound as well;
- ``x_fft``/``x_ifft`` and ``apply_nonlinearity`` are imported by name, so
  every importing module is patched; this also splits FFT time by caller;
- ``h1_native`` runs both inside the guard and inside ``sample_record``, so
  the guard and sample spans are inclusive and ``h1_native`` is counted
  only.

A layer's self time is its span's duration minus the time of its direct
child spans.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

from ounls import experiments, hermite, observables, operators, stepping

# (owner, attribute, span name); an owner is a module or a class
TARGETS = [
    (operators.LinearPropagator, "apply", "operators.propagator_apply"),
    (operators.Machinery, "propagator", "operators.propagator_lookup"),
    (operators, "build_linear_propagator", "operators.propagator_build"),
    (operators, "eigh_tridiagonal", "operators.div_eigh"),
    (operators, "apply_nonlinearity", "operators.nonlinearity"),
    (stepping, "apply_nonlinearity", "operators.nonlinearity"),
    (operators, "x_fft", "grids.fft.propagator"),
    (operators, "x_ifft", "grids.fft.propagator"),
    (stepping, "x_fft", "grids.fft.dealias"),
    (stepping, "x_ifft", "grids.fft.dealias"),
    (observables, "x_fft", "grids.fft.diagnostics"),
    (observables, "x_ifft", "grids.fft.diagnostics"),
    (hermite, "forward_tensor", "hermite.forward_tensor"),
    (hermite, "inverse_tensor", "hermite.inverse_tensor"),
    (hermite, "build_basis", "hermite.build_basis"),
    (stepping, "_dealias", "stepping.dealias"),
    (stepping, "detect_blowup", "stepping.guard"),
    (stepping, "integrate", "stepping.integrate"),
    (experiments, "integrate", "stepping.integrate"),
    (observables, "sample_record", "observables.sample_record"),
    (observables, "h1_native", "observables.h1_native"),
    (observables, "energy", "observables.energy"),
    (experiments, "run_strichartz_ensemble", "experiments.strichartz"),
    (experiments, "run_embedding_ensembles", "experiments.embeddings"),
]

MODULES = (experiments, hermite, observables, operators, stepping)

# per-layer metric -> (unit, better, the end-to-end metric and workloads it
# should move); the names and units here are the ones in BENCHMARK.json
LAYER_METRICS = {
    "operators.propagator_apply.s": ("s", "lower", "wall_s on drift_fixed, div_dense, div_blowup"),
    "operators.propagator_apply.self_s": ("s", "lower", "wall_s on div_dense, div_blowup"),
    "operators.propagator_apply.calls": ("count", "lower", "wall_s on div_dense, div_blowup"),
    "operators.propagator_build.s": ("s", "lower", "setup_s, peak_rss_mb on div_dense; wall_s on div_blowup"),
    "operators.propagator_build.calls": ("count", "lower", "setup_s, peak_rss_mb on div_dense; wall_s on div_blowup"),
    "operators.propagator_cache.hit_ratio": ("ratio", "higher", "wall_s on div_blowup"),
    "operators.div_eigh.s": ("s", "lower", "setup_s on div_dense, div_blowup"),
    "operators.nonlinearity.s": ("s", "lower", "wall_s on drift_fixed, div_dense, div_blowup"),
    "operators.nonlinearity.calls": ("count", "lower", "wall_s on drift_fixed, div_dense, div_blowup"),
    "grids.fft.propagator_s": ("s", "lower", "wall_s on drift_fixed, div_dense, div_blowup"),
    "grids.fft.dealias_s": ("s", "lower", "wall_s on drift_fixed, div_dense, div_blowup"),
    "grids.fft.diagnostics_s": ("s", "lower", "wall_s on div_dense"),
    "grids.fft.calls": ("count", "lower", "wall_s on drift_fixed, div_dense, div_blowup"),
    "stepping.dealias.s": ("s", "lower", "wall_s on drift_fixed, div_dense, div_blowup"),
    "stepping.dealias.calls": ("count", "lower", "wall_s on drift_fixed, div_dense, div_blowup"),
    "hermite.forward_tensor.s": ("s", "lower", "wall_s on drift_fixed"),
    "hermite.forward_tensor.calls": ("count", "lower", "wall_s on drift_fixed"),
    "hermite.inverse_tensor.s": ("s", "lower", "wall_s on drift_fixed"),
    "hermite.inverse_tensor.calls": ("count", "lower", "wall_s on drift_fixed"),
    "hermite.build_basis.s": ("s", "lower", "setup_s on drift_fixed; wall_s on ensembles"),
    "hermite.build_basis.calls": ("count", "lower", "setup_s on drift_fixed; wall_s on ensembles"),
    "stepping.guard.s": ("s", "lower", "wall_s on drift_fixed, div_dense"),
    "stepping.guard.calls": ("count", "lower", "wall_s on div_blowup (accepted steps)"),
    "stepping.useful_ratio": ("ratio", "higher", "wall_s on div_blowup (1 on fixed-step runs)"),
    "stepping.integrate.s": ("s", "lower", "wall_s on drift_fixed, div_dense, div_blowup"),
    "observables.sample_record.s": ("s", "lower", "wall_s on div_dense"),
    "observables.sample_record.calls": ("count", "lower", "wall_s on div_dense"),
    "observables.h1_native.calls": ("count", "lower", "wall_s on drift_fixed, div_dense"),
    "observables.energy.calls": ("count", "lower", "wall_s on div_dense"),
    "experiments.strichartz.s": ("s", "lower", "wall_s on ensembles"),
    "experiments.embeddings.s": ("s", "lower", "wall_s on ensembles"),
    "tracing.wall_s": ("s", "lower", "traced wall_s, for the overhead"),
    "tracing.overhead_s": ("s", "lower", "traced minus untraced wall_s"),
}


class Tracer:
    """Context manager that installs the span wrappers and keeps the spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._restore = []  # (owner, attribute, original)
        self._defaults = []  # (function, original __defaults__)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        functions = [
            obj for module in MODULES for obj in vars(module).values()
            if isinstance(obj, types.FunctionType) and obj.__defaults__
        ]
        wrappers = {}  # id(original) -> its first wrapper
        for owner, attr, name in TARGETS:
            original = vars(owner).get(attr)
            if original is None:
                print(f"trace: {owner.__name__}.{attr} not found, {name} not traced",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(name, original)
            wrappers.setdefault(id(original), wrapper)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        for fn in functions:
            defaults = fn.__defaults__
            rebound = tuple(wrappers.get(id(d), d) for d in defaults)
            if any(a is not b for a, b in zip(rebound, defaults)):
                self._defaults.append((fn, defaults))
                fn.__defaults__ = rebound
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        for fn, defaults in self._defaults:
            fn.__defaults__ = defaults
        self._restore.clear()
        self._defaults.clear()
        return False

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - child[i]
        return calls, inclusive, own


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced call, except the tracing.* pair."""
    calls, inclusive, own = tracer.totals()
    lookups = calls["operators.propagator_lookup"]
    builds = calls["operators.propagator_build"]
    strang = calls["operators.nonlinearity"]
    fft_names = ("grids.fft.propagator", "grids.fft.dealias", "grids.fft.diagnostics")
    return {
        "operators.propagator_apply.s": inclusive["operators.propagator_apply"],
        "operators.propagator_apply.self_s": own["operators.propagator_apply"],
        "operators.propagator_apply.calls": calls["operators.propagator_apply"],
        "operators.propagator_build.s": inclusive["operators.propagator_build"],
        "operators.propagator_build.calls": builds,
        "operators.propagator_cache.hit_ratio": 1.0 - builds / lookups if lookups else 0.0,
        "operators.div_eigh.s": inclusive["operators.div_eigh"],
        "operators.nonlinearity.s": inclusive["operators.nonlinearity"],
        "operators.nonlinearity.calls": strang,
        "grids.fft.propagator_s": own["grids.fft.propagator"],
        "grids.fft.dealias_s": own["grids.fft.dealias"],
        "grids.fft.diagnostics_s": own["grids.fft.diagnostics"],
        "grids.fft.calls": sum(calls[n] for n in fft_names),
        "stepping.dealias.s": inclusive["stepping.dealias"],
        "stepping.dealias.calls": calls["stepping.dealias"],
        "hermite.forward_tensor.s": inclusive["hermite.forward_tensor"],
        "hermite.forward_tensor.calls": calls["hermite.forward_tensor"],
        "hermite.inverse_tensor.s": inclusive["hermite.inverse_tensor"],
        "hermite.inverse_tensor.calls": calls["hermite.inverse_tensor"],
        "hermite.build_basis.s": inclusive["hermite.build_basis"],
        "hermite.build_basis.calls": calls["hermite.build_basis"],
        "stepping.guard.s": inclusive["stepping.guard"],
        "stepping.guard.calls": calls["stepping.guard"],
        "stepping.useful_ratio": calls["stepping.guard"] / strang if strang else 0.0,
        "stepping.integrate.s": inclusive["stepping.integrate"],
        "observables.sample_record.s": inclusive["observables.sample_record"],
        "observables.sample_record.calls": calls["observables.sample_record"],
        "observables.h1_native.calls": calls["observables.h1_native"],
        "observables.energy.calls": calls["observables.energy"],
        "experiments.strichartz.s": inclusive["experiments.strichartz"],
        "experiments.embeddings.s": inclusive["experiments.embeddings"],
    }
