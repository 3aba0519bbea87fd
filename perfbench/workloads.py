"""The four benchmark workloads, taken from the acceptance criteria.

A workload has two entry points. ``setup(seed)`` builds what the first time
step needs for the workload's discretisation(s): the machinery, the lazy
div eigendecomposition (through the first propagator build) and the initial
data. ``call(seed)`` runs the scenario runner(s) to their ``Report`` and
returns every verdict as ``(name, passed)`` pairs; the call is what
``wall_s`` times.

Sizes are cut down from the acceptance configs so that one call fits
several times into a run of the benchmark; models, grids, time steps,
sampling density and the pinned tolerances inside the runners are the
acceptance ones. The cuts:

- ``drift_fixed`` integrates to t = 0.5 with 5 samples instead of t = 1
  with 101 samples.
- ``div_dense`` integrates to t = 0.05 instead of 1, with the criterion-3
  sample spacing of 0.01; the full run takes over a minute.
- ``div_blowup`` uses 65 div nodes instead of 257: the flag time moves from
  0.0565 to 0.0570, every check still passes, and a call takes about 6 s
  instead of 35 s.
- ``ensembles`` draws 8 strichartz members instead of 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ounls import experiments, hermite, operators, reporting
from ounls.config import InitialData, ScenarioConfig
from ounls.models import DEFOCUSING, FOCUSING, DiscretizationSpec, ModelSpec

CONS_DISC = DiscretizationSpec(n_x=256, box_half_length=8 * math.pi)
STRICHARTZ_PAIRS = [(6.0, 6.0), (8.0, 4.0)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    setup: Callable[[int], None]
    call: Callable[[int], list]


def _verdicts(report) -> list:
    return [(f"{report.scenario}:{c.name}", c.passed) for c in report.checks]


def _first_step_setup(cfg: ScenarioConfig, specs, first_dt: float):
    """Machinery, first half-step propagator and initial data per model."""
    for spec in specs:
        mach = operators.build_machinery(spec, cfg.disc)
        mach.propagator(0.5 * first_dt)
        experiments.gaussian_field(mach, cfg.initial)


# ---------------------------------------------------- drift_fixed, div_dense

DRIFT = ScenarioConfig(
    scenario="conservation", model=ModelSpec("nondiv", 1, 4), disc=CONS_DISC,
    horizon=0.5, dt=1e-3, n_samples=5,
)
DIV_DENSE = ScenarioConfig(
    scenario="conservation", model=ModelSpec("div", 1, 2), disc=CONS_DISC,
    horizon=0.05, dt=1e-3, n_samples=6,
)


def _conservation_workload(name, why, cfg):
    def setup(seed):
        # run_conservation starts with the 2*dt leg
        _first_step_setup(cfg, [cfg.model], 2.0 * cfg.dt)

    def call(seed):
        return _verdicts(experiments.run_conservation(cfg))

    return Workload(name, why, False, setup, call)


# -------------------------------------------------------------- div_blowup

BLOWUP = ScenarioConfig(
    scenario="blowup", model=ModelSpec("div", 1, 4),
    disc=DiscretizationSpec(n_x=128, box_half_length=4 * math.pi, div_nodes=65),
    horizon=0.45, dt=1e-3,
)


def _blowup_setup(seed):
    # the runner builds a focusing machinery and a defocusing control
    specs = [replace(BLOWUP.model, sign=sign) for sign in (FOCUSING, DEFOCUSING)]
    _first_step_setup(BLOWUP, specs, BLOWUP.dt)


def _blowup_call(seed):
    return _verdicts(experiments.run_blowup(BLOWUP))


# --------------------------------------------------------------- ensembles

STRICHARTZ = ScenarioConfig(
    scenario="strichartz", model=ModelSpec("nondiv", 1, 4),
    disc=DiscretizationSpec(n_x=256), horizon=4.0, ensemble=8,
    initial=InitialData(band=8),
)
EMBEDDINGS = ScenarioConfig(
    scenario="embeddings", model=ModelSpec("nondiv", 1, 2), ensemble=256,
    initial=InitialData(band=12),
)


def _ensembles_setup(seed):
    n_alpha = EMBEDDINGS.disc.n_alpha
    for n in (n_alpha, 2 * n_alpha):
        hermite.build_basis(n)
    operators.build_div_operator(STRICHARTZ.disc.div_nodes, STRICHARTZ.disc.div_half_width)
    for seq in np.random.SeedSequence(seed).spawn(STRICHARTZ.ensemble):
        experiments.random_band_coeffs(np.random.default_rng(seq), 1, STRICHARTZ.initial.band)


def _ensembles_call(seed):
    nondiv = replace(STRICHARTZ, seed=seed)
    div = replace(nondiv, model=ModelSpec("div", 1, 4))
    first = experiments.run_strichartz_ensemble(nondiv, pairs=STRICHARTZ_PAIRS)
    verdicts = _verdicts(first)
    verdicts += _verdicts(experiments.run_strichartz_ensemble(div, pairs=STRICHARTZ_PAIRS))
    verdicts += _verdicts(experiments.run_embedding_ensembles(replace(EMBEDDINGS, seed=seed)))
    # criterion 9: the seeded nondiv ensemble reruns to byte-identical rows
    rerun = experiments.run_strichartz_ensemble(nondiv, pairs=STRICHARTZ_PAIRS)
    identical = reporting.rows_csv_bytes(rerun.rows) == reporting.rows_csv_bytes(first.rows)
    verdicts.append(("determinism:byte_identical_rows", identical))
    return verdicts


WORKLOADS = {
    w.name: w
    for w in (
        _conservation_workload(
            "drift_fixed",
            "long fixed-step drift-form run: Hermite transforms, x-FFTs, nonlinear "
            "phase and guard; no dense matmul, few diagnostics samples",
            DRIFT,
        ),
        _conservation_workload(
            "div_dense",
            "fixed-step div form with dense sampling: the 513^2 propagator matmul "
            "and sample_record dominate",
            DIV_DENSE,
        ),
        Workload(
            "div_blowup",
            "the only adaptive run: 3 Strang evaluations per step, propagator "
            "builds over changing dt, ended by the blow-up guard",
            False, _blowup_setup, _blowup_call,
        ),
        Workload(
            "ensembles",
            "seeded Strichartz and embedding ensembles plus a byte-identical rerun: "
            "batched FFT ladders and Hermite bases, no time stepping",
            True, _ensembles_setup, _ensembles_call,
        ),
    )
}
