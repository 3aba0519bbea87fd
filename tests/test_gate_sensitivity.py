"""Each acceptance gate must go red on a deliberately broken solver.

A variant breaks one piece of what its row calls by monkeypatching it, and
runs the row on its own ``ACCEPTANCE`` config, so a red result speaks for
``ounls all``.  Nothing in the package has a switch for these variants.
"""

import numpy as np
import pytest

from ounls import operators, stepping
from ounls.config import ScenarioConfig
from ounls.experiments import ACCEPTANCE, AcceptanceReports

ROWS = {row.key: row for row in ACCEPTANCE}


def run_row(key: str) -> dict:
    """The row's verdicts by check name: (passed, value)."""
    row = ROWS[key]
    base = ScenarioConfig()
    report = row.run(row.config(base), AcceptanceReports(base))
    return {c.name: (c.passed, c.value) for c in report.checks}


def euler_phase(data, mach, dt):
    """u (1 + i theta) in place of u exp(i theta): first order and not
    unitary, so the mass grows by theta^2 per step."""
    theta = -mach.spec.sign * dt * operators.nonlinear_gain(data, mach)
    return data * (1.0 + 1j * theta)


def wrong_sign_hermite_flow(axis, t):
    """exp(-it lambda_n) in place of exp(it lambda_n): still unitary."""
    return np.exp(-1j * t * axis.basis.eigenvalues)


# criterion 3 (conservation), row 3-nondiv: (variant, owner, attribute,
# the checks that must go red, the checks that stay green)
CONSERVATION_VARIANTS = {
    "euler-phase": (stepping, "apply_nonlinearity", euler_phase,
                    {"mass_drift", "energy_drift", "energy_drift_halving_ratio"}, set()),
    # a wrong flow that is still unitary keeps the mass
    "wrong-sign-hermite-phase": (operators.HermiteAxis, "flow", wrong_sign_hermite_flow,
                                 {"energy_drift", "energy_drift_halving_ratio"},
                                 {"mass_drift"}),
}


@pytest.mark.parametrize("variant", list(CONSERVATION_VARIANTS))
def test_conservation_gates_go_red(variant, monkeypatch):
    owner, attr, broken, red, green = CONSERVATION_VARIANTS[variant]
    monkeypatch.setattr(owner, attr, broken)
    verdicts = run_row("3-nondiv")
    assert {name for name, (passed, _) in verdicts.items() if not passed} == red, verdicts
    assert {name for name, (passed, _) in verdicts.items() if passed} == green, verdicts
