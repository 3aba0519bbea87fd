"""Each acceptance gate must go red on a deliberately broken solver.

A variant breaks one piece of what its row calls by monkeypatching it, and
runs the row on its own ``ACCEPTANCE`` config, so a red result speaks for
``ounls all``.  Nothing in the package has a switch for these variants.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ounls import experiments, hermite, observables, operators, stepping
from ounls.config import ScenarioConfig
from ounls.experiments import ACCEPTANCE, AcceptanceReports, embedding_ratios
from ounls.models import FOCUSING
from ounls.operators import apply_div_operator

ROWS = {row.key: row for row in ACCEPTANCE}


def verdicts(report) -> dict:
    """The report's verdicts by check name: (passed, value)."""
    return {c.name: (c.passed, c.value) for c in report.checks}


def run_row(key: str) -> dict:
    """The row's verdicts, run on its own config."""
    row = ROWS[key]
    base = ScenarioConfig()
    return verdicts(row.run(row.config(base), AcceptanceReports(base)))


def euler_phase(data, mach, dt, columns=slice(None)):
    """u (1 + i theta) in place of u exp(i theta): first order and not
    unitary, so the mass grows by theta^2 per step."""
    amp2 = operators.squared_modulus(data)
    theta = -mach.spec.sign * dt * operators.nonlinear_gain(amp2, mach, columns)
    return data * (1.0 + 1j * theta)


def wrong_sign_hermite_flow(axis, t):
    """exp(-it lambda_n) in place of exp(it lambda_n): still unitary."""
    return np.exp(-1j * t * axis.basis.eigenvalues)


# criterion 3 (conservation): (variant, row, owner, attribute, the checks
# that must go red, the checks that stay green)
CONSERVATION_VARIANTS = {
    "euler-phase": ("3-nondiv", stepping, "apply_nonlinearity", euler_phase,
                    {"mass_drift", "energy_drift", "energy_drift_halving_ratio"}, set()),
    "euler-phase-div": ("3-div", stepping, "apply_nonlinearity", euler_phase,
                        {"mass_drift", "energy_drift", "energy_drift_halving_ratio"}, set()),
    # a wrong flow that is still unitary keeps the mass
    "wrong-sign-hermite-phase": ("3-nondiv", operators.HermiteAxis, "flow",
                                 wrong_sign_hermite_flow,
                                 {"energy_drift", "energy_drift_halving_ratio"},
                                 {"mass_drift"}),
}


@pytest.mark.parametrize("variant", list(CONSERVATION_VARIANTS))
def test_conservation_gates_go_red(variant, monkeypatch):
    row, owner, attr, broken, red, green = CONSERVATION_VARIANTS[variant]
    monkeypatch.setattr(owner, attr, broken)
    verdicts = run_row(row)
    assert {name for name, (passed, _) in verdicts.items() if not passed} == red, verdicts
    assert {name for name, (passed, _) in verdicts.items() if passed} == green, verdicts


# criterion 5 (embedding ensembles), row 5
def undamped_sup_ratios(coeffs, band, n_alpha, power):
    """The Sobolev ratio with the node sup of |u| in place of
    |u| e^{-a^2/2}: the undamped sup grows with the outermost node, so it
    moves with n_alpha."""
    sobolev, nonlinear = embedding_ratios(coeffs, band, n_alpha, power)
    basis = hermite.build_basis(n_alpha)
    u = np.abs(coeffs @ basis.eigenfunctions[:band])
    damped = u * np.exp(-0.5 * basis.nodes**2)
    return sobolev * u.max(axis=-1) / damped.max(axis=-1), nonlinear


def decaying_counterexample(power, radius):
    """The unweighted ratio on exp(-a^2/8) in place of exp(a^2/8): the
    decaying profile keeps it bounded, so it levels off with the radius."""
    a = np.linspace(-radius, radius, experiments.COUNTEREXAMPLE_NODES)
    u = np.exp(-(a**2) / 8.0)
    du = -(a / 4.0) * u
    gauss = np.exp(-0.5 * a**2)
    nl, dnl = u ** (power + 1), (power + 1) * u**power * du
    num = np.trapezoid((nl**2 + dnl**2) * gauss, a)
    den = np.trapezoid((u**2 + du**2) * gauss, a)
    return math.sqrt(num) / math.sqrt(den) ** (power + 1)


def unweighted_forward(values, basis):
    """The Hermite projection without the Gauss weights, along axis 0: both
    norms then grow with n_alpha, the nonlinear one included."""
    return basis.eigenfunctions @ values


# (variant, owner, attribute, the checks that must go red); the others,
# the finite_* gates among them, stay green
EMBEDDING_VARIANTS = {
    "undamped-sup": (experiments, "embedding_ratios", undamped_sup_ratios,
                     {"resolution_stability_sobolev"}),
    "decaying-counterexample": (experiments, "counterexample_ratio", decaying_counterexample,
                                {"counterexample_monotone_growth"}),
    "unweighted-projection": (hermite, "forward_tensor", unweighted_forward,
                              {"resolution_stability_sobolev",
                               "resolution_stability_nonlinear"}),
}


@pytest.mark.parametrize("variant", list(EMBEDDING_VARIANTS))
def test_embedding_gates_go_red(variant, monkeypatch):
    owner, attr, broken, red = EMBEDDING_VARIANTS[variant]
    assert all(passed for passed, _ in run_row("5").values())
    monkeypatch.setattr(owner, attr, broken)
    verdicts = run_row("5")
    assert {name for name, (passed, _) in verdicts.items() if not passed} == red, verdicts


# the finite_* gates of rows 5 and 8-nondiv: a finite gate reads red only on
# a nonfinite value, so each variant makes what its ratios divide by NaN
def nan_h1alpha_density(coeffs, axis):
    return np.full(coeffs.shape[1:], np.nan)


# (variant, row, owner, attribute, the checks that must go red); the others
# stay green
FINITE_VARIANTS = {
    "nan-interaction-bound": ("8-nondiv", observables, "morawetz_dI_bound",
                              lambda fld, mach: math.nan,
                              {"finite_ratio_abs", "finite_ratio_bracket",
                               "resolution_stability_abs",
                               "resolution_stability_bracket"}),
    "nan-h1alpha": ("5", experiments, "_h1alpha_density", nan_h1alpha_density,
                    {"finite_sobolev", "finite_nonlinear",
                     "resolution_stability_sobolev", "resolution_stability_nonlinear"}),
}


@pytest.mark.parametrize("variant", list(FINITE_VARIANTS))
def test_finite_gates_go_red(variant, monkeypatch):
    row, owner, attr, broken, red = FINITE_VARIANTS[variant]
    monkeypatch.setattr(owner, attr, broken)
    verdicts = run_row(row)
    assert {name for name, (passed, _) in verdicts.items() if not passed} == red, verdicts


# criterion 2 (divergence/drift identity), row 2
def left_node_flux(values, axis):
    """The flux form with each face weight exp(-a^2/2) taken at the face's
    left node instead of its midpoint: a first-order discretization."""
    left = replace(axis, face_weights=np.exp(-0.5 * axis.nodes[:-1] ** 2))
    return apply_div_operator(values, left)


def test_identity_order_gates_go_red(monkeypatch):
    monkeypatch.setattr(operators, "apply_div_operator", left_node_flux)
    orders = run_row("2")
    assert len(orders) == 3
    # fitted orders near 1 against the >= 1.8 gate
    for passed, value in orders.values():
        assert not passed and 0.9 < value < 1.2, orders


# criterion 9 (seeded determinism), row 9
def test_determinism_gate_goes_red_on_an_unseeded_draw(monkeypatch):
    draw = experiments.random_band_coeffs
    monkeypatch.setattr(experiments, "random_band_coeffs",
                        lambda rng, dim, band: draw(np.random.default_rng(), dim, band))
    reports = AcceptanceReports(ScenarioConfig())
    assert verdicts(reports["9"])["byte_identical_rows"] == (False, 0.0)
    # each run is still a valid ensemble, so the row it reruns stays green
    assert reports["4-nondiv"].passed


# criterion 8 (interaction functional), row 8-nondiv
interaction = observables.morawetz_I


def unweighted_interaction(fld, mach, rho="abs"):
    """I_rho as the plain double sum over node pairs, without the cell
    volume squared: doubling n_x makes it four times larger."""
    return interaction(fld, mach, rho) / mach.grid.cell_volume**2


def test_interaction_stability_gates_go_red(monkeypatch):
    monkeypatch.setattr(observables, "morawetz_I", unweighted_interaction)
    verdicts = run_row("8-nondiv")
    red = {name for name, (passed, _) in verdicts.items() if not passed}
    assert red == {"resolution_stability_abs", "resolution_stability_bracket"}, verdicts
    # the ratio grows about 4x from n_x to 2 n_x: a relative change near 3
    for name in red:
        assert 2.5 < verdicts[name][1] < 3.5, verdicts


# criterion 6 (scattering), row 6
propagator = operators.Machinery.propagator


def forward_time_propagator(mach, t):
    """S(|t|) in place of S(t).  The stepper asks only for t > 0, so only
    the pullback changes: it runs forward, and w(t) = S(t) u(t) does not
    settle."""
    return propagator(mach, abs(t))


def test_scattering_gates_go_red(monkeypatch):
    monkeypatch.setattr(operators.Machinery, "propagator", forward_time_propagator)
    verdicts = run_row("6")
    assert not any(passed for passed, _ in verdicts.values()), verdicts
    # the last Cauchy difference is larger than the first, against 0.1
    assert verdicts["cauchy_final_below_tenth"][1] > 1.0, verdicts


# criterion 7 (blow-up), row 7
def test_defocusing_control_gate_goes_red(monkeypatch):
    # the control leg runs focusing on the same E < 0 data, so it flags too;
    # the focusing leg's checks do not read the control
    monkeypatch.setattr(experiments, "DEFOCUSING", FOCUSING)
    verdicts = run_row("7")
    assert verdicts["defocusing_control_unflagged"] == (False, 1.0), verdicts
    red = {name for name, (passed, _) in verdicts.items() if not passed}
    assert red == {"defocusing_control_unflagged"}, verdicts
