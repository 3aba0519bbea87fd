"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-9 are the rows of ``ounls.experiments.ACCEPTANCE``, the table
that ``ounls all`` runs; here each row runs on the default
``ScenarioConfig()``.  Run with `pytest tests/test_acceptance.py -v -s`.
Every tolerance is pinned in the runners, nothing is calibrated at runtime.
"""

import numpy as np
import pytest

from ounls.config import ScenarioConfig
from ounls.experiments import ACCEPTANCE, AcceptanceReports
from ounls.hermite import build_basis, forward_tensor

ROWS = {row.key: row for row in ACCEPTANCE}


def announce(criterion: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion} {detail}")
    assert passed, f"{criterion}: {detail}"


def report_detail(report) -> str:
    detail = "; ".join(f"{c.name}={c.value:.4g} ({c.gate})" for c in report.checks)
    return f"{detail}; {report.notes}" if report.notes else detail


@pytest.fixture(scope="module")
def reports():
    """Row reports, each run once; criterion 9 reuses criterion 4's."""
    return AcceptanceReports(ScenarioConfig())


def check_row(reports, key: str):
    report = reports[key]
    announce(ROWS[key].title, report.passed, report_detail(report))


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


def test_criterion_2_operator_identity(reports):
    check_row(reports, "2")


@pytest.mark.parametrize("key", ["3-nondiv", "3-div"], ids=["nondiv-4", "div-2"])
def test_criterion_3_conservation(reports, key):
    check_row(reports, key)


def test_criterion_4_strichartz_nondiv(reports):
    check_row(reports, "4-nondiv")


def test_criterion_4_strichartz_div(reports):
    check_row(reports, "4-div")


def test_criterion_5_embeddings(reports):
    check_row(reports, "5")


def test_criterion_6_scattering(reports):
    check_row(reports, "6")


def test_criterion_7_blowup(reports):
    check_row(reports, "7")


@pytest.mark.parametrize("key", ["8-div", "8-nondiv"], ids=["div-2", "nondiv-4"])
def test_criterion_8_morawetz(reports, key):
    check_row(reports, key)


def test_criterion_9_determinism(reports):
    check_row(reports, "9")


def test_rows_record_their_runner_settings(reports):
    # what a runner fixes in place of config entries, written by ounls all
    # under runner_settings in each row's config file
    for key in ("3-nondiv", "3-div"):
        assert reports[key].settings == {"dt": [2e-3, 1e-3]}
    for key in ("4-nondiv", "4-div", "9"):
        assert reports[key].settings == {
            "strichartz_pairs": [[6.0, 6.0], [8.0, 4.0]], "n_x": [256, 512],
            "time_samples": 257, "coarse_points": [34, 34],
        }
    assert reports["5"].settings == {"n_alpha": [64, 128]}
    assert reports["7"].settings == {
        "leg_signs": {"focusing leg": -1, "defocusing control": 1},
        "dt_floor": 3e-5, "sample_dt": 0.005, "control_samples": 41,
    }
    for key in ("8-div", "8-nondiv"):
        assert reports[key].settings == {"n_x": [256, 512], "sample_dt": 0.01}


def test_every_table_row_has_a_test():
    tested = {"2", "3-nondiv", "3-div", "4-nondiv", "4-div", "5", "6", "7",
              "8-div", "8-nondiv", "9"}
    assert set(ROWS) == tested and len(ROWS) == len(ACCEPTANCE)
