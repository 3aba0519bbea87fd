"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (or via `ounls all`).
Target: full suite under 15 minutes on a 4-core laptop; every tolerance is
pinned here, nothing is calibrated at runtime.
"""

import math

import numpy as np
import pytest

from ounls.config import InitialData, ScenarioConfig
from ounls.experiments import (
    run_blowup,
    run_conservation,
    run_embedding_ensembles,
    run_identity,
    run_morawetz,
    run_scattering,
    run_strichartz_ensemble,
)
from ounls.hermite import build_basis, forward_tensor
from ounls.models import DiscretizationSpec, ModelSpec
from ounls.reporting import emit_rows


def announce(criterion: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion} {detail}")
    assert passed, f"{criterion}: {detail}"


def report_detail(report) -> str:
    return "; ".join(
        f"{c.name}={c.value:.4g} ({c.gate})" for c in report.checks
    )


CONS_DISC = DiscretizationSpec(n_x=256, box_half_length=8 * math.pi)


@pytest.fixture(scope="module")
def strichartz_nondiv_report():
    cfg = ScenarioConfig(
        scenario="strichartz",
        model=ModelSpec("nondiv", 1, 4),
        disc=DiscretizationSpec(n_x=256),
        horizon=4.0,
        ensemble=64,
        initial=InitialData(band=8),
        seed=1234,
    )
    return cfg, run_strichartz_ensemble(cfg, pairs=[(6.0, 6.0), (8.0, 4.0)])


def test_criterion_1_ou_eigenvalues():
    # modal operator on phi_n returns -n phi_n, max error < 1e-10, n < 48
    basis = build_basis(64)
    worst = 0.0
    for n in range(48):
        coeffs = forward_tensor(basis.eigenfunctions[n].astype(complex), basis)
        applied = coeffs * basis.eigenvalues
        worst = max(worst, float(np.abs(applied - (-n) * coeffs).max()))
    announce("criterion 1 (OU spectral structure)", worst < 1e-10,
             f"max eigen-action error {worst:.3e} < 1e-10")


def test_criterion_2_operator_identity():
    cfg = ScenarioConfig(scenario="identity", model=ModelSpec("div", 1, 2))
    report = run_identity(cfg)
    announce("criterion 2 (divergence/drift identity, order >= 1.8)",
             report.passed, report_detail(report))


@pytest.mark.parametrize("model,p", [("nondiv", 4), ("div", 2)])
def test_criterion_3_conservation(model, p):
    cfg = ScenarioConfig(
        scenario="conservation",
        model=ModelSpec(model, 1, p),
        disc=CONS_DISC,
        horizon=1.0,
        dt=1e-3,
        n_samples=101,
    )
    report = run_conservation(cfg)
    announce(f"criterion 3 (conservation, {model})", report.passed,
             report_detail(report))


def test_criterion_4_strichartz_nondiv(strichartz_nondiv_report):
    _, report = strichartz_nondiv_report
    announce("criterion 4 (space-time boundedness proxy, nondiv, "
             "(6,6)+(8,4), k=0/1 and weighted-H1 variant)",
             report.passed, report_detail(report))


def test_criterion_4_strichartz_div():
    cfg = ScenarioConfig(
        scenario="strichartz",
        model=ModelSpec("div", 1, 4),
        disc=DiscretizationSpec(n_x=256),
        horizon=4.0,
        ensemble=64,
        initial=InitialData(band=8),
        seed=1234,
    )
    report = run_strichartz_ensemble(cfg, pairs=[(6.0, 6.0), (8.0, 4.0)])
    announce("criterion 4 (space-time boundedness proxy, div, (6,6)+(8,4))",
             report.passed, report_detail(report))


def test_criterion_5_embeddings():
    cfg = ScenarioConfig(
        scenario="embeddings",
        model=ModelSpec("nondiv", 1, 2),
        ensemble=256,
        initial=InitialData(band=12),
        seed=1234,
    )
    report = run_embedding_ensembles(cfg)
    announce("criterion 5 (weighted Sobolev / nonlinear estimate ensembles "
             "+ exp(a^2/8) counterexample)", report.passed, report_detail(report))


def test_criterion_6_scattering():
    cfg = ScenarioConfig(
        scenario="scattering",
        model=ModelSpec("nondiv", 1, 4),
        disc=DiscretizationSpec(n_x=256),
        horizon=16.0,
        dt=1e-3,
        scattering_delta=0.05,
    )
    report = run_scattering(cfg)
    announce("criterion 6 (small-data scattering Cauchy ladder)",
             report.passed, report_detail(report))


def test_criterion_7_blowup():
    cfg = ScenarioConfig(
        scenario="blowup",
        model=ModelSpec("div", 1, 4),
        disc=DiscretizationSpec(n_x=128, box_half_length=4 * math.pi, div_nodes=257),
        horizon=0.45,
        dt=1e-3,
    )
    report = run_blowup(cfg)
    announce("criterion 7 (virial identity and finite-time blow-up)",
             report.passed, report_detail(report) + f"; {report.notes}")


@pytest.mark.parametrize("model,p", [("div", 2), ("nondiv", 4)])
def test_criterion_8_morawetz(model, p):
    cfg = ScenarioConfig(
        scenario="simulate",
        model=ModelSpec(model, 1, p),
        disc=CONS_DISC,
        horizon=0.5,
        dt=1e-3,
    )
    report = run_morawetz(cfg)
    announce(f"criterion 8 (interaction functional bound, {model})",
             report.passed, report_detail(report))


def test_criterion_9_determinism(strichartz_nondiv_report, tmp_path):
    cfg, first = strichartz_nondiv_report
    again = run_strichartz_ensemble(cfg, pairs=[(6.0, 6.0), (8.0, 4.0)])

    def row_bytes(report, name):
        path = str(tmp_path / name)
        emit_rows(report.rows, path)
        return open(path, "rb").read()

    identical = row_bytes(first, "a.csv") == row_bytes(again, "b.csv")
    announce("criterion 9 (seeded determinism, byte-identical rows)",
             identical, f"{len(first.rows)} rows compared")
